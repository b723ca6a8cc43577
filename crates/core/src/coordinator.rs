//! The coordinator: the mutex-guarded **control plane** — ingest
//! routing, membership, failover, rebalance, and continuous-query
//! bookkeeping. Reads do not pass through here: they run on the
//! lock-free [`QueryPlane`](crate::QueryPlane) this publishes plans to.
//!
//! Every control message is a [`Request`] this module spells and hands
//! to [`Executor::ask`] under the name that keys its policy and
//! telemetry; beyond that it contributes only what is not generic:
//! ingest routing, partition-map surgery during rebalance/failover, and
//! plan publication. Read composition (two-phase kNN, heat-maps, …)
//! lives in [`QueryPlane`] so it can run without this lock.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use stcam_camnet::Observation;
use stcam_codec::decode_from_slice;
use stcam_geo::{TimeInterval, Timestamp};
use stcam_index::{SealedSegment, SegmentDigest};
use stcam_net::{Endpoint, NodeId};

use crate::continuous::{ContinuousQueryId, Notification, Predicate};
use crate::error::StcamError;
use crate::exec::{
    all_alive, region_targets, unexpected, want_ack, want_observations, Executor, HeatmapOp,
    OpPolicy, OpStats,
};
use crate::ingest::ReliableSender;
use crate::partition::PartitionMap;
use crate::plane::{QueryOpts, QueryPlane};
use crate::protocol::{CensusReport, DigestReport, Request, Response, WorkerStatsMsg, PROJ_FULL};
use crate::repair::{self, RepairBudget, RepairReport};

/// Aggregated statistics across the cluster.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Per-worker statistics (alive workers only).
    pub workers: Vec<(NodeId, WorkerStatsMsg)>,
    /// Per-operation executor telemetry, sorted by operation name.
    pub ops: Vec<(&'static str, OpStats)>,
    /// Distinct owned macro-cells currently missing at least one of their
    /// required replica copies (0 when replication is disabled or the
    /// anti-entropy invariant holds — see [`Coordinator::repair`]).
    pub under_replicated_cells: usize,
}

impl ClusterStats {
    /// Total observations held in primary shards.
    pub fn total_primary(&self) -> u64 {
        self.workers
            .iter()
            .map(|(_, s)| s.primary_observations)
            .sum()
    }

    /// Approximate bytes held in memory across all primary shards
    /// (mutable heads plus resident sealed-segment payloads).
    pub fn resident_bytes(&self) -> u64 {
        self.workers.iter().map(|(_, s)| s.resident_bytes).sum()
    }

    /// Sealed immutable segments held across all primary shards.
    pub fn sealed_segments(&self) -> u64 {
        self.workers.iter().map(|(_, s)| s.sealed_segments).sum()
    }

    /// Max ÷ mean of per-worker primary observation counts (1.0 = perfect
    /// balance). Returns 1.0 for an empty cluster.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_primary();
        if total == 0 || self.workers.is_empty() {
            return 1.0;
        }
        let max = self
            .workers
            .iter()
            .map(|(_, s)| s.primary_observations)
            .max()
            .unwrap_or(0);
        max as f64 / (total as f64 / self.workers.len() as f64)
    }

    /// Executor telemetry of one operation (zeros when never invoked).
    pub fn op(&self, name: &str) -> OpStats {
        self.ops
            .iter()
            .find(|(op, _)| *op == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }
}

/// Outcome of an online rebalance (see [`Coordinator::rebalance`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceReport {
    /// Macro-cells whose owner changed.
    pub cells_moved: usize,
    /// Rows shipped to new owners: every moved row once in the copy,
    /// plus, for cells written to during the move, what the drain ships
    /// (stragglers, and the old owner's unsealed head again).
    pub observations_moved: usize,
    /// Imbalance factor under the old map (max/mean of measured load).
    pub imbalance_before: f64,
    /// Imbalance factor of the same load under the new map.
    pub imbalance_after: f64,
}

/// Outcome of a coordinator rebuild from worker censuses (see
/// [`Coordinator::reconstruct`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReconstructReport {
    /// Workers that answered the census probe, sorted.
    pub responders: Vec<NodeId>,
    /// The route epoch the rebuilt control plane published — strictly
    /// above every epoch any surviving worker reported, so the new
    /// incarnation fences out all stale route state.
    pub adopted_epoch: u64,
    /// Cells whose ownership was recovered directly from a worker claim
    /// (the rest were re-derived along the Z-order curve).
    pub claimed_cells: usize,
    /// Standing queries re-learned from worker-installed registrations.
    pub recovered_registrations: usize,
}

/// One macro cell's primary copy on its way from `from` to `to` — the
/// unit [`Coordinator::ship`] and [`Coordinator::drain`] work on.
#[derive(Debug)]
struct CellMove {
    /// Packed macro-cell index (`row * cols + col`).
    cell: u32,
    /// The worker ceding the cell.
    from: NodeId,
    /// The worker taking it over.
    to: NodeId,
    /// Digests of the segments `to` holds whole — what the copy phase
    /// installed, and so what the drain need not export again.
    installed: Vec<SegmentDigest>,
}

/// What `node`'s primary shard holds of packed cell `cell` per one digest
/// sweep: `None` when it did not answer, `Some(None)` when it holds
/// nothing of the cell, else the cell's `(count, checksum)`.
fn primary_digest(
    digests: &[(NodeId, DigestReport)],
    node: NodeId,
    cell: u32,
) -> Option<Option<(u32, u64)>> {
    let (_, report) = digests.iter().find(|(w, _)| *w == node)?;
    let entry = report.primary.iter().find(|e| e.cell == cell);
    Some(entry.map(|e| (e.count, e.checksum)))
}

/// The answer of a control message asked of one worker.
fn only<T>(mut answers: Vec<(NodeId, Result<T, StcamError>)>) -> Result<T, StcamError> {
    answers.pop().expect("one target, one answer").1
}

/// The cluster's control plane and query router.
///
/// The coordinator is driven synchronously by the client thread: ingest
/// routing and failure recovery are plain method calls. Fan-out, retry,
/// and telemetry live in the [`Executor`]; reads live in the
/// [`QueryPlane`]. After every mutation of the partition map or alive
/// set the coordinator publishes a fresh [`QueryPlan`](crate::QueryPlan)
/// so lock-free readers observe it.
#[derive(Debug)]
pub struct Coordinator {
    exec: Executor,
    plane: Arc<QueryPlane>,
    sender: ReliableSender,
    partition: PartitionMap,
    replication: usize,
    alive: HashSet<NodeId>,
    /// Every worker ever admitted to the cluster, dead or alive.
    /// Rebalance drops dead members from the partition ring, so this is
    /// the set [`check_and_recover`](Self::check_and_recover) probes for
    /// restarts.
    known: HashSet<NodeId>,
    next_query_id: u64,
    /// Standing queries, kept for re-registration on failover.
    registrations: HashMap<ContinuousQueryId, Predicate>,
    /// Failover promotions that failed after retries (data recovery then
    /// falls to anti-entropy repair).
    promotion_failures: u64,
    /// Standing-query re-registrations that failed during failover.
    registration_failures: u64,
}

impl Coordinator {
    /// Creates a coordinator over an already-partitioned cluster.
    ///
    /// `endpoint` carries control-plane traffic (ingest, probes,
    /// migration, continuous-query notifications); `query_endpoints`
    /// become the query plane's pool — at least one is required.
    pub fn new(
        endpoint: Endpoint,
        query_endpoints: Vec<Endpoint>,
        partition: PartitionMap,
        replication: usize,
        rpc_timeout: StdDuration,
    ) -> Self {
        let alive: HashSet<NodeId> = partition.workers().iter().copied().collect();
        let exec = Executor::new(endpoint, OpPolicy::new(rpc_timeout));
        exec.set_replication(replication);
        // Probes are single-attempt: a timeout *is* the liveness signal.
        let probe = OpPolicy::no_retry(rpc_timeout.min(StdDuration::from_millis(250)));
        exec.set_policy("probe", probe);
        // Acked writes: up to five sends, five whole timeouts of patience.
        let write = OpPolicy {
            timeout: rpc_timeout,
            max_attempts: 5,
        };
        exec.set_policy("ingest_seq", write);
        exec.set_policy("replicate_seq", write);
        // Pooled executors share the coordinator executor's account:
        // one telemetry registry, one policy table, one health view.
        let shared = exec.shared();
        let pool: Vec<Executor> = query_endpoints
            .into_iter()
            .map(|ep| Executor::with_shared(ep, Arc::clone(&shared)))
            .collect();
        let plane = Arc::new(QueryPlane::new(pool, partition.clone(), alive.clone()));
        let sender = ReliableSender::new(Arc::clone(&plane), replication);
        Coordinator {
            exec,
            plane,
            sender,
            known: alive.clone(),
            partition,
            replication,
            alive,
            next_query_id: 1,
            registrations: HashMap::new(),
            promotion_failures: 0,
            registration_failures: 0,
        }
    }

    /// The lock-free query plane fed by this coordinator's plan
    /// publications. Clone the `Arc` and issue reads from any thread
    /// without taking the control-plane lock.
    pub fn query_plane(&self) -> Arc<QueryPlane> {
        Arc::clone(&self.plane)
    }

    /// Publishes the current partition map and alive set as a new
    /// [`QueryPlan`](crate::QueryPlan) epoch. Called after every
    /// membership/partition mutation.
    fn publish_plan(&self) {
        self.plane
            .publish(self.partition.clone(), self.alive.clone());
    }

    /// The current partition map.
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }

    /// Installs a timeout/retry policy override for the named operation.
    pub fn set_op_policy(&self, op: &'static str, policy: OpPolicy) {
        self.exec.set_policy(op, policy);
    }

    /// Per-operation executor telemetry, sorted by operation name.
    pub fn op_stats(&self) -> Vec<(&'static str, OpStats)> {
        self.exec.op_stats()
    }

    /// The workers currently believed alive.
    pub fn alive_workers(&self) -> Vec<NodeId> {
        all_alive(&self.alive)
    }

    /// Current per-node suspicion (consecutive failed RPCs since the
    /// last success), for every node with recorded history.
    pub fn suspicions(&self) -> Vec<(NodeId, u32)> {
        self.exec.health().snapshot()
    }

    /// Failover promotions that failed after retries. Non-zero means a
    /// successor could not absorb a dead worker's replica log when its
    /// shard was reassigned; the data is restored by the next
    /// [`repair`](Self::repair) sweep instead.
    pub fn promotion_failures(&self) -> u64 {
        self.promotion_failures
    }

    /// Standing-query re-registrations that failed during failover. The
    /// affected successor misses continuous-query matches until the next
    /// registration broadcast (rebalance or rejoin) reaches it.
    pub fn registration_failures(&self) -> u64 {
        self.registration_failures
    }

    // ------------------------------------------------------------------
    // Ingest path
    // ------------------------------------------------------------------

    /// Acknowledged ingest through the coordinator's own endpoint: the
    /// path and contract of [`Ingestor::ingest`](crate::Ingestor::ingest).
    /// Returns the number of observations durably **accepted** — not
    /// merely routed; anything unaccepted is parked and re-driven by
    /// [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// [`StcamError::NoQuorum`] when no worker is alive; unreachable
    /// workers park observations instead of erroring.
    pub fn ingest(&mut self, batch: Vec<Observation>) -> Result<usize, StcamError> {
        // This plan is the authoritative one: sync the snapshot first.
        self.sender.refresh_plan();
        self.sender.ingest(&self.exec, batch)
    }

    /// Write barrier, shared with [`Ingestor::flush`](crate::Ingestor::flush):
    /// drains the parked window (re-delivering under fresh routing), then
    /// pings every alive worker behind all previously sent traffic.
    ///
    /// # Errors
    ///
    /// As [`Ingestor::flush`](crate::Ingestor::flush).
    pub fn flush(&self) -> Result<(), StcamError> {
        self.sender.flush(&self.exec)
    }

    /// Pushes every alive worker its slice of the current routing plan
    /// (epoch + owned cell set), arming the misroute-NACK check that
    /// lets stale senders self-heal. Per-worker failures are ignored: a
    /// worker that misses an update keeps its previous (older-epoch)
    /// route and simply NACKs less precisely until the next broadcast.
    pub fn broadcast_routes(&self) {
        let _ = self.tell("route_update", &self.alive_workers(), |to| {
            self.route_of(to)
        });
    }

    /// `to`'s slice of the published plan: its epoch and the cells `to`
    /// owns under it.
    fn route_of(&self, to: NodeId) -> Request {
        Request::RouteUpdate {
            epoch: self.plane.epoch(),
            grid: *self.partition.grid(),
            cells: self.partition.packed_cells_of(to),
        }
    }

    /// All-time observation counts per macro cell (row-major), read
    /// through the query plane's published plan — the measured load
    /// profile rebalance and rejoin partition by.
    fn cell_loads(&self, opts: &QueryOpts) -> Result<Vec<u64>, StcamError> {
        let op = HeatmapOp {
            buckets: *self.partition.grid(),
            window: TimeInterval::ALL,
        };
        self.plane.query(op, opts).map(|d| d.value)
    }

    /// Ages out observations older than `cutoff` everywhere.
    ///
    /// # Errors
    ///
    /// Propagates worker failures.
    pub fn evict_before(&self, cutoff: Timestamp) -> Result<(), StcamError> {
        let epoch = self.plane.epoch();
        let sweep = |_| Request::EvictBefore { cutoff, epoch };
        self.tell("evict", &self.alive_workers(), sweep)
    }

    // ------------------------------------------------------------------
    // Moving a cell's primary copy
    // ------------------------------------------------------------------

    /// Sends the control message `name` to each of `targets` and waits
    /// for every ack; the first failed target's error wins.
    fn tell(
        &self,
        name: &'static str,
        targets: &[NodeId],
        request: impl FnMut(NodeId) -> Request,
    ) -> Result<(), StcamError> {
        let answers = self.exec.ask(name, targets, request, want_ack);
        answers.into_iter().try_for_each(|(_, answer)| answer)
    }

    /// Overwrites `target`'s copy of packed cell `cell` held for
    /// `primary` (its own primary shard when the two are equal — then
    /// only ever with nothing, to drop a ceded cell) with `contents`, in
    /// bounded batches: the first truncates the stale copy, the rest
    /// append.
    fn overwrite_cell(
        &self,
        target: NodeId,
        primary: NodeId,
        cell: u32,
        contents: &[Observation],
    ) -> Result<(), StcamError> {
        // Nothing to write still sends the one truncating message.
        let nothing = contents.is_empty().then_some(contents);
        let batches = nothing
            .into_iter()
            .chain(contents.chunks(repair::STREAM_CHUNK));
        for (i, batch) in batches.enumerate() {
            self.tell("repair", &[target], |_| Request::Repair {
                primary,
                grid: *self.partition.grid(),
                cell,
                truncate: i == 0,
                batch: batch.to_vec(),
            })?;
        }
        Ok(())
    }

    /// Exports `m.from`'s copy of the cell — minus the segments
    /// `m.installed` names — and installs it at `m.to`; returns the rows
    /// shipped. The only place a cell's rows leave one primary shard for
    /// another, whoever asks (rebalance, rejoin, stray drain).
    ///
    /// `whole` ships sealed segments as frames, archived at `m.to`
    /// without re-indexing and recorded in `m.installed`. Frames dedup
    /// only by digest, so that is sound only onto a cell `m.to` holds
    /// nothing of (the copy phase). Otherwise (the drain) frames are
    /// unsealed here and travel as rows, which pass `m.to`'s id filter.
    /// Export reads, install dedups: every message may be re-sent.
    fn ship(&self, m: &mut CellMove, whole: bool) -> Result<usize, StcamError> {
        let export = |_| Request::ExportSegments {
            region: repair::cell_region(self.partition.grid(), m.cell),
            skip: m.installed.clone(),
        };
        let want = |response| match response {
            Response::Segments { frames, head } => Ok((frames, head)),
            other => Err(unexpected("segments", other)),
        };
        let (mut frames, mut head) =
            only(self.exec.ask("export_segments", &[m.from], export, want))?;
        if whole {
            m.installed.extend(frames.iter().map(|f| SegmentDigest {
                number: f.number,
                count: f.count,
                checksum: f.checksum,
            }));
        } else {
            for frame in frames.drain(..) {
                head.extend(SealedSegment::from_frame(frame)?.unseal());
            }
        }
        let shipped = frames.iter().map(|f| f.count as usize).sum::<usize>() + head.len();
        // The frames ride with the first chunk of rows (alone, if there
        // are no rows).
        let rowless = (head.is_empty() && !frames.is_empty()).then_some(&head[..]);
        for chunk in rowless.into_iter().chain(head.chunks(repair::STREAM_CHUNK)) {
            self.tell("install_segments", &[m.to], |_| Request::InstallSegments {
                frames: std::mem::take(&mut frames),
                head: chunk.to_vec(),
            })?;
        }
        Ok(shipped)
    }

    /// The post-cutover half of every move in `moves`: hands each `to`
    /// whatever its `from` accepted after the copy, then drops the ceded
    /// copy. Returns the rows shipped, one result per move.
    ///
    /// Each `from` is first re-sent its slice of the published route (the
    /// cutover broadcast tolerates losses; this step does not). From
    /// then on it NACKs every write to the cell, so what it holds is
    /// final and it will not refuse the truncate. One digest sweep then
    /// tells which cells still differ between the two copies; only those
    /// are exported again (a quiet cell is just dropped). A failure
    /// leaves the old copy in place — a stray the next
    /// [`repair`](Self::repair) round drains again.
    fn drain(&self, moves: &mut [CellMove]) -> Vec<Result<usize, StcamError>> {
        if moves.is_empty() {
            return Vec::new();
        }
        let mut confirmed: HashMap<NodeId, Result<(), StcamError>> = HashMap::new();
        for m in moves.iter() {
            let resend = || self.tell("route_update", &[m.from], |to| self.route_of(to));
            confirmed.entry(m.from).or_insert_with(resend);
        }
        let digests = self.sweep_digests(&self.partition);
        moves
            .iter_mut()
            .map(|m| {
                confirmed[&m.from].clone()?;
                let held = |node| primary_digest(&digests, node, m.cell);
                let settled = match (held(m.from), held(m.to)) {
                    (Some(None), _) => true,
                    (Some(from), Some(to)) => from == to,
                    _ => false,
                };
                let shipped = if settled { 0 } else { self.ship(m, false)? };
                self.overwrite_cell(m.from, m.from, m.cell, &[])?;
                Ok(shipped)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Online rebalancing
    // ------------------------------------------------------------------

    /// Re-partitions the cluster by *measured* per-cell load and moves
    /// the affected primary copies: each moved macro-cell is copied into
    /// its new owner as whole sealed segments plus head rows, the new
    /// owner's replica chain is brought up to the configured factor by an
    /// anti-entropy sweep against the *target* map, and only then is the
    /// map cut over, the stragglers the old owner accepted meanwhile
    /// drained across, and the old copy dropped. Acked data survives the
    /// move; queries issued after this call observe the full data set
    /// under the new map.
    ///
    /// Intended for rebalance epochs when traffic has drifted from the
    /// distribution the current map was built for (see the load-balance
    /// and rebalance experiments).
    ///
    /// # Errors
    ///
    /// Propagates worker failures; every step may simply be run again. A
    /// failure before the cutover leaves the old map in force (the
    /// partial copies are redundant: a re-run copies beside them); a
    /// failure after it leaves the new map in force with undrained copies
    /// at old owners. Either kind of leftover is a stray that
    /// [`repair`](Self::repair) drains.
    ///
    /// External [`Ingestor`](crate::Ingestor) handles hold routing
    /// snapshots, but heal themselves: the route broadcast after the
    /// swap arms the misroute NACK that makes them refresh from the
    /// published plan.
    pub fn rebalance(&mut self) -> Result<RebalanceReport, StcamError> {
        // 1. Measure the load profile: all-time per-macro-cell counts.
        let grid = *self.partition.grid();
        let loads = self.cell_loads(&QueryOpts::STRICT)?;
        let imbalance_before = self.partition.imbalance(&loads);
        // 2. Build the target map over the alive ring.
        let alive_ring: Vec<NodeId> = self
            .partition
            .workers()
            .iter()
            .copied()
            .filter(|w| self.alive.contains(w))
            .collect();
        if alive_ring.is_empty() {
            return Err(StcamError::NoQuorum);
        }
        let target = PartitionMap::load_aware(grid.extent(), grid.cell_size(), alive_ring, &loads);
        // 3. Copy every moved cell into its new owner. Whole frames may
        // only land on a cell the new owner holds nothing of, and it may
        // hold something — an abandoned earlier attempt, or an undrained
        // stray of a cell that is now coming back, acked stragglers and
        // all. One digest sweep tells; an occupied cell (or one whose new
        // owner did not answer) is copied as rows instead, beside them.
        let digests = self.sweep_digests(&self.partition);
        let mut moves: Vec<CellMove> = grid
            .all_cells()
            .filter_map(|cell| {
                let from = self.partition.owner_of_cell(cell);
                let to = target.owner_of_cell(cell);
                (from != to && self.alive.contains(&from)).then(|| CellMove {
                    cell: cell.row * grid.cols() + cell.col,
                    from,
                    to,
                    installed: Vec::new(),
                })
            })
            .collect();
        let mut observations_moved = 0usize;
        for m in &mut moves {
            let whole = primary_digest(&digests, m.to, m.cell) == Some(None);
            observations_moved += self.ship(m, whole)?;
        }
        // 4. Cover phase: bring every moved cell's replica chain up to
        // the configured factor *under the target map* before any old
        // copy is dropped.
        self.repair_against(&target, RepairBudget::default(), false);
        // 5. Cutover: swap in the new map and publish it.
        self.partition = target;
        self.publish_plan();
        self.broadcast_routes();
        // 6. Drain and drop the old copies.
        for shipped in self.drain(&mut moves) {
            observations_moved += shipped?;
        }
        // 7. Make standing queries present at their (possibly new)
        // overlapping workers, and re-converge replica coverage for the
        // straggler drain.
        self.reregister(None);
        self.repair();
        let imbalance_after = self.partition.imbalance(&loads);
        Ok(RebalanceReport {
            cells_moved: moves.len(),
            observations_moved,
            imbalance_before,
            imbalance_after,
        })
    }

    // ------------------------------------------------------------------
    // Anti-entropy repair
    // ------------------------------------------------------------------

    /// One anti-entropy repair pass under the default budget: sweeps
    /// per-cell digests from every alive worker, drains stray primary
    /// copies (at any factor, 0 included), compares each owner's primary
    /// against the copies at its required ring successors, and streams the
    /// missing/diverged cells until the configured factor holds everywhere
    /// (or the budget runs out — re-invoke; the sweep is idempotent).
    ///
    /// Individual worker failures during a pass are tolerated: the next
    /// round re-plans from fresh digests. The pass itself never fails.
    pub fn repair(&self) -> RepairReport {
        self.repair_against(&self.partition, RepairBudget::default(), true)
    }

    /// The digest-sweep/plan/stream loop behind [`repair`](Self::repair),
    /// parameterised by the partition map the invariant is judged against
    /// (rebalance repairs against its *target* map before cutover).
    ///
    /// `drain_strays` additionally reclaims primary copies of cells the
    /// map assigns elsewhere (a ceded cell whose drain or drop was lost):
    /// each goes through [`drain`](Self::drain) again. Pre-cutover
    /// callers pass `false` — against a not-yet-published target map the
    /// ceding owners still serve reads, so their copies are not stale.
    fn repair_against(
        &self,
        partition: &PartitionMap,
        budget: RepairBudget,
        drain_strays: bool,
    ) -> RepairReport {
        let mut report = RepairReport::default();
        if self.replication == 0 && !drain_strays {
            report.converged = true; // no copies to cover, no strays wanted
            return report;
        }
        let grid = *partition.grid();
        let mut first_sweep = true;
        loop {
            let digests = self.sweep_digests(partition);
            let mut plan = repair::plan(&digests, partition, &self.alive, self.replication);
            if !drain_strays {
                plan.strays.clear();
                // Replica logs keyed by a ceding owner are not stale
                // against a not-yet-published map either: the ceding
                // owner still holds (and serves) the cell, so "stream
                // the empty truth" would fetch the still-present copy
                // and faithfully re-append it every round without ever
                // converging. Post-cutover repair reclaims these logs
                // together with the stray primary copies.
                plan.deficits
                    .retain(|d| partition.owner_of_packed(d.cell) == d.owner);
            }
            if first_sweep {
                report.under_replicated_before = plan.under_replicated_cells;
                first_sweep = false;
            }
            report.under_replicated_after = plan.under_replicated_cells;
            if plan.is_converged() || report.rounds >= budget.max_rounds {
                report.converged = plan.is_converged();
                return report;
            }
            report.rounds += 1;
            let traffic_before = self.repair_traffic();
            // Stray primary copies of ceded cells: finish their move.
            // Segments the owner already holds whole need not travel.
            let mut held: HashMap<NodeId, Vec<SegmentDigest>> = HashMap::new();
            let mut strays: Vec<CellMove> = plan
                .strays
                .iter()
                .map(|s| CellMove {
                    cell: s.cell,
                    from: s.holder,
                    to: s.owner,
                    installed: held
                        .entry(s.owner)
                        .or_insert_with(|| {
                            let ask = |_| Request::SegmentDigest;
                            let held = |response| match response {
                                Response::SegmentDigests(digests) => Ok(digests),
                                other => Err(unexpected("segment digests", other)),
                            };
                            only(self.exec.ask("segment_digest", &[s.owner], ask, held))
                                .unwrap_or_default()
                        })
                        .clone(),
                })
                .collect();
            for drained in self.drain(&mut strays).into_iter().flatten() {
                report.cells_repaired += 1;
                report.observations_streamed += drained;
            }
            // Stale copies outside the required successor sets: truncate
            // without restreaming (their alive primaries hold the data).
            for g in &plan.garbage {
                if self.overwrite_cell(g.holder, g.owner, g.cell, &[]).is_ok() {
                    report.cells_repaired += 1;
                }
            }
            // Deficits, grouped by (owner, cell) so each source copy is
            // fetched once however many holders need it.
            let mut groups: std::collections::BTreeMap<(NodeId, u32), Vec<NodeId>> =
                std::collections::BTreeMap::new();
            for d in &plan.deficits {
                groups.entry((d.owner, d.cell)).or_default().push(d.holder);
            }
            let mut budget_left = budget.max_observations_per_round;
            'groups: for ((owner, cell), holders) in groups {
                // Budget check *before* the fetch: once the round is out
                // of stream budget, fetching the remaining copies would
                // be pure waste (they are re-planned and re-fetched next
                // round anyway).
                if budget_left == 0 {
                    break 'groups;
                }
                // The copy side of replica-log repair: a plain range read.
                let copy = |_| Request::Range {
                    region: repair::cell_region(&grid, cell),
                    window: TimeInterval::ALL,
                    limit: 0,
                    projection: PROJ_FULL,
                };
                let copied = self
                    .exec
                    .ask("copy_region", &[owner], copy, want_observations);
                let Ok(contents) = only(copied) else {
                    continue; // owner unreachable this round: re-planned next round
                };
                for holder in holders {
                    if self.overwrite_cell(holder, owner, cell, &contents).is_ok() {
                        report.cells_repaired += 1;
                        report.observations_streamed += contents.len();
                        budget_left = budget_left.saturating_sub(contents.len());
                    }
                    if budget_left == 0 {
                        break 'groups;
                    }
                }
            }
            self.exec
                .note_repair(1, self.repair_traffic().saturating_sub(traffic_before));
        }
    }

    /// Wire bytes attributable to repair streaming so far: repair and
    /// install requests sent plus cell copies and exports received.
    fn repair_traffic(&self) -> u64 {
        let stats = |op| self.exec.stats_for(op);
        stats("repair").bytes_sent
            + stats("install_segments").bytes_sent
            + stats("copy_region").bytes_received
            + stats("export_segments").bytes_received
    }

    /// One digest sweep over the alive workers; non-answering workers
    /// simply contribute nothing (the planner treats their copies as
    /// missing and retries next round).
    fn sweep_digests(&self, partition: &PartitionMap) -> Vec<(NodeId, DigestReport)> {
        let grid = *partition.grid();
        let want = |response| match response {
            Response::Digests(report) => Ok(report),
            other => Err(unexpected("digests", other)),
        };
        let sweep = |_| Request::CellDigest { grid };
        self.exec
            .ask("cell_digest", &self.alive_workers(), sweep, want)
            .into_iter()
            .filter_map(|(w, r)| r.ok().map(|d| (w, d)))
            .collect()
    }

    /// Distinct owned macro-cells currently missing at least one required
    /// replica copy, per a fresh digest sweep (0 with replication
    /// disabled). This is the convergence gauge [`repair`](Self::repair)
    /// drives to zero.
    pub fn under_replicated_cells(&self) -> usize {
        if self.replication == 0 {
            return 0;
        }
        let digests = self.sweep_digests(&self.partition);
        repair::plan(&digests, &self.partition, &self.alive, self.replication)
            .under_replicated_cells
    }

    // ------------------------------------------------------------------
    // Continuous queries
    // ------------------------------------------------------------------

    /// Registers a standing query; matches will arrive via
    /// [`poll_notifications`](Self::poll_notifications).
    ///
    /// # Errors
    ///
    /// Fails when a shard worker cannot be reached.
    pub fn register_continuous(
        &mut self,
        predicate: Predicate,
    ) -> Result<ContinuousQueryId, StcamError> {
        let id = ContinuousQueryId(self.next_query_id);
        self.next_query_id += 1;
        self.register(id, predicate, None)?;
        self.registrations.insert(id, predicate);
        Ok(id)
    }

    /// Removes a standing query everywhere.
    ///
    /// # Errors
    ///
    /// Fails when a shard worker cannot be reached.
    pub fn unregister_continuous(&mut self, id: ContinuousQueryId) -> Result<(), StcamError> {
        self.registrations.remove(&id);
        let remove = |_| Request::UnregisterContinuous(id);
        self.tell("unregister_continuous", &self.alive_workers(), remove)
    }

    /// Installs a standing query at the alive workers its region
    /// overlaps (of those, only at `only` when set).
    fn register(
        &self,
        id: ContinuousQueryId,
        predicate: Predicate,
        only: Option<NodeId>,
    ) -> Result<(), StcamError> {
        let mut targets = region_targets(&self.partition, &self.alive, predicate.region);
        targets.retain(|w| only.is_none_or(|o| o == *w));
        let notify = self.exec.endpoint().id();
        self.tell("register_continuous", &targets, |_| {
            Request::RegisterContinuous {
                id,
                predicate,
                notify,
            }
        })
    }

    /// Drains match notifications that have arrived since the last poll,
    /// waiting up to `timeout` for the first one.
    pub fn poll_notifications(&self, timeout: StdDuration) -> Vec<Notification> {
        let endpoint = self.exec.endpoint();
        let mut out = Vec::new();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let Some(envelope) = endpoint.recv_timeout(remaining) else {
                break;
            };
            if let Ok(notification) = decode_from_slice::<Notification>(&envelope.payload) {
                out.push(notification);
            }
            if !out.is_empty() {
                // Drain whatever else is already queued, then return.
                while let Some(envelope) = endpoint.try_recv() {
                    if let Ok(n) = decode_from_slice::<Notification>(&envelope.payload) {
                        out.push(n);
                    }
                }
                break;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Membership and recovery
    // ------------------------------------------------------------------

    /// Probes every worker believed alive; for each failure, fails its
    /// shard over to the first alive ring successor (which holds the
    /// replica when the replication factor covers it), repairs the
    /// partition map, and re-registers standing queries there. Then
    /// probes every worker believed *dead*: a restarted worker that
    /// answers is readmitted through the rejoin handshake — its state is
    /// reset, its target shard bulk-synced from the current owners, its
    /// epoch-stamped route and standing-query registrations re-installed,
    /// and the whole re-entry made visible by a single plan publication.
    /// Any membership change ends with an anti-entropy pass, so strict
    /// reads can rely on the ring-walked successors the new plan points
    /// them at and no ceded copy outlives a failed drain. Returns the
    /// newly failed workers.
    pub fn check_and_recover(&mut self) -> Vec<NodeId> {
        let mut failed = self.alive_workers();
        let answered = self.responders(&self.alive);
        failed.retain(|worker| !answered.contains(worker));
        for &worker in &failed {
            self.alive.remove(&worker);
        }
        for &worker in &failed {
            self.fail_over(worker);
        }
        if !failed.is_empty() {
            // One publication covering membership + every reassignment;
            // queries in flight finish on their old snapshot and are
            // caught by replica failover if they touch a dead worker.
            self.publish_plan();
            self.broadcast_routes();
        }
        let rejoined = self.try_rejoin();
        if !failed.is_empty() || !rejoined.is_empty() {
            self.repair();
        }
        failed
    }

    fn fail_over(&mut self, failed: NodeId) {
        let chain = self
            .partition
            .successors(failed, self.partition.workers().len() - 1);
        let Some(successor) = chain.into_iter().find(|w| self.alive.contains(w)) else {
            return; // no quorum: nothing to repair onto
        };
        self.partition.reassign(failed, successor);
        // Absorb the replica log; data loss is bounded by in-flight
        // replication traffic at crash time. This runs even with
        // replication disabled, because hinted handoff parks acked
        // batches for a dead owner in its successor's replica log.
        self.promote(successor, failed, self.plane.epoch());
        // Standing queries whose region now overlaps the successor's
        // enlarged shard must be present there.
        self.reregister(Some(successor));
    }

    /// Re-sends every standing registration — to `only`, or with `None`
    /// to every worker its region overlaps (registering twice is a
    /// no-op). A failure is counted, not fatal: the next membership
    /// change or rebalance re-sends the registration.
    fn reregister(&mut self, only: Option<NodeId>) {
        for (id, predicate) in self.registrations() {
            if self.register(id, predicate, only).is_err() {
                self.registration_failures += 1;
            }
        }
    }

    /// Tells `target` to absorb its replica log of `failed` into its
    /// primary shard. A failure is counted, not swallowed: the executor
    /// has already booked it into the "promote" telemetry and `target`'s
    /// suspicion, and the next anti-entropy pass re-streams the log.
    fn promote(&mut self, target: NodeId, failed: NodeId, epoch: u64) {
        let absorb = |_| Request::Promote { failed, epoch };
        if self.tell("promote", &[target], absorb).is_err() {
            self.promotion_failures += 1;
        }
    }

    /// Pings `nodes` under the "probe" policy (single-attempt by default:
    /// a timeout *is* the signal) and returns who answered, in id order.
    fn responders(&self, nodes: &HashSet<NodeId>) -> Vec<NodeId> {
        let ping = |_| Request::Ping;
        let answers = self.exec.ask("probe", &all_alive(nodes), ping, want_ack);
        let answered = answers.into_iter().filter(|(_, answer)| answer.is_ok());
        answered.map(|(worker, _)| worker).collect()
    }

    /// Probes every known-but-dead worker and readmits the ones that
    /// answer (a restart brings the transport back with empty state).
    /// Returns the workers that completed the rejoin handshake.
    fn try_rejoin(&mut self) -> Vec<NodeId> {
        let dead: HashSet<NodeId> = self.known.difference(&self.alive).copied().collect();
        if dead.is_empty() {
            return Vec::new();
        }
        let responders = self.responders(&dead);
        let rejoined = responders.into_iter().filter(|&w| self.rejoin(w).is_ok());
        rejoined.collect()
    }

    /// The rejoin handshake for one restarted worker: reset it, bulk-sync
    /// its target shard from the current owners, readmit it, and cut the
    /// plan over in a single publication. Fails (leaving the old plan in
    /// force and the worker out of the ring) only before any durable
    /// state moves; from the bulk-sync on, individual RPC failures are
    /// absorbed by the trailing anti-entropy pass.
    fn rejoin(&mut self, worker: NodeId) -> Result<(), StcamError> {
        let grid = *self.partition.grid();
        // 1. Target map: minimal-churn admission — the rejoiner is
        // granted a fair share of the measured load carved from the most
        // loaded veterans, and every other assignment is preserved. A
        // from-scratch load-aware rebuild here would reshuffle ownership
        // across the whole keyspace and make the pre-cutover replica
        // covering (step 5) re-stream nearly every cell; carving keeps
        // the covering proportional to the share actually moved.
        let loads = self
            .cell_loads(&QueryOpts::BEST_EFFORT)
            .unwrap_or_else(|_| vec![1; grid.cell_count() as usize]);
        let target = self.partition.admit(worker, &loads);
        let cells = target.packed_cells_of(worker);
        // 2. Handshake: reset the restarted worker's state and install
        // its route, stamped with the epoch the cutover below publishes.
        self.tell("rejoin", &[worker], |_| Request::Rejoin {
            epoch: self.plane.epoch() + 1,
            grid,
            cells: cells.clone(),
        })?;
        // 3. Bulk-sync: copy every assigned cell from its current owner
        // into the (just emptied) rejoiner.
        let mut moves: Vec<CellMove> = cells
            .iter()
            .map(|&cell| CellMove {
                cell,
                from: self.partition.owner_of_packed(cell),
                to: worker,
                installed: Vec::new(),
            })
            .filter(|m| m.from != worker && self.alive.contains(&m.from))
            .collect();
        for m in &mut moves {
            self.ship(m, true)?;
        }
        // 4. Readmit: a fresh incarnation gets a fresh suspicion history
        // (the old one's accumulated failures must not demote it).
        self.alive.insert(worker);
        self.known.insert(worker);
        self.exec.health().forget(worker);
        // 5. Cover the rejoiner's cells at their required successors
        // under the target map before any old copy is dropped. The
        // covering is one-shot work proportional to the whole target
        // map (readmitting a worker shifts ring successors broadly), so
        // it runs under the bulk budget: one digest sweep and one copy
        // fetch per cell instead of a fresh sweep every 8 k rows.
        self.repair_against(&target, RepairBudget::bulk(), false);
        // 6. Cutover: one publication atomically re-enters the worker.
        self.partition = target;
        self.publish_plan();
        self.broadcast_routes();
        // 7. Standing queries must be present at the fresh incarnation
        // (the reset dropped the old registrations).
        self.reregister(Some(worker));
        // 8. Drain and drop the ceded copies. A failed drain leaves a
        // stray for the anti-entropy pass that follows every rejoin.
        self.drain(&mut moves);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Coordinator crash recovery
    // ------------------------------------------------------------------

    /// Standing-query registrations currently tracked by the control
    /// plane, id-sorted. After [`reconstruct`](Self::reconstruct) this is
    /// exactly what the surviving workers reported.
    pub fn registrations(&self) -> Vec<(ContinuousQueryId, Predicate)> {
        let mut v: Vec<(ContinuousQueryId, Predicate)> =
            self.registrations.iter().map(|(&id, &p)| (id, p)).collect();
        v.sort_by_key(|(id, _)| id.0);
        v
    }

    /// Rebuilds this coordinator's entire volatile state from the
    /// surviving cluster, the way a freshly started coordinator instance
    /// recovers after a crash: nothing the previous incarnation believed
    /// is trusted, only what workers report.
    ///
    /// The sequence:
    ///
    /// 1. **Probe** every candidate; responders form the new alive set.
    /// 2. **Census** the responders: installed route epoch, owned primary
    ///    cells, replica-log keys, locally-installed standing
    ///    registrations.
    /// 3. **Fence**: adopt an epoch strictly above every reported (and
    ///    previously published) epoch, so workers reject any straggling
    ///    older coordinator instance from here on.
    /// 4. **Rebuild ownership** from reported claims — on conflicting
    ///    claims the one installed at the highest route epoch wins
    ///    (lowest node id breaks ties) — and fill unclaimed cells along
    ///    the Z-order curve.
    /// 5. **Recover standing queries** from worker truth and re-register
    ///    them cluster-wide.
    /// 6. **Promote** replica logs held for dead members, publish the new
    ///    plan at the adopted epoch, broadcast routes, and drive
    ///    anti-entropy repair to convergence.
    ///
    /// A worker that a census names as a replica-log source but that did
    /// not answer the probe joins the *known* roster, so a later
    /// [`check_and_recover`](Self::check_and_recover) still probes it for
    /// rejoin even though this incarnation never saw it alive.
    ///
    /// # Errors
    ///
    /// [`StcamError::NoQuorum`] when no candidate answers the probe; the
    /// previous state is left untouched in that case.
    pub fn reconstruct(&mut self, candidates: &[NodeId]) -> Result<ReconstructReport, StcamError> {
        // 1. Probe: the roster starts from who answers, not from any
        // remembered membership.
        let pool: HashSet<NodeId> = candidates.iter().copied().collect();
        let responders: HashSet<NodeId> = self.responders(&pool).into_iter().collect();
        if responders.is_empty() {
            return Err(StcamError::NoQuorum);
        }
        // 2. Census (single round: the op is idempotent and a non-answer
        // just narrows the evidence this rebuild works from).
        let want = |response| match response {
            Response::Census(report) => Ok(report),
            other => Err(unexpected("census", other)),
        };
        let reports: Vec<(NodeId, CensusReport)> = self
            .exec
            .ask("census", &all_alive(&responders), |_| Request::Census, want)
            .into_iter()
            .filter_map(|(worker, result)| result.ok().map(|r| (worker, r)))
            .collect();
        // 3. Epoch adoption: strictly above everything any worker has
        // installed *and* above whatever this process previously
        // published, fencing both stale workers and zombie coordinators.
        let census_max = reports.iter().map(|(_, r)| r.epoch).max().unwrap_or(0);
        let adopted = census_max.max(self.plane.epoch()) + 1;
        // 4. Ownership: the highest-epoch claim per cell wins. Claims are
        // only comparable within one grid, so reports carrying a foreign
        // grid (none occur in practice) contribute no claims.
        let grid = reports
            .iter()
            .filter_map(|(_, r)| r.grid.map(|g| (r.epoch, g)))
            .max_by_key(|(epoch, _)| *epoch)
            .map(|(_, g)| g)
            .unwrap_or(*self.partition.grid());
        let cell_count = grid.cell_count() as usize;
        let mut best: Vec<Option<(u64, NodeId)>> = vec![None; cell_count];
        for (worker, report) in &reports {
            if report.grid != Some(grid) {
                continue;
            }
            for &packed in &report.cells {
                let Some(slot) = best.get_mut(packed as usize) else {
                    continue;
                };
                let replace = match *slot {
                    None => true,
                    Some((e, n)) => report.epoch > e || (report.epoch == e && *worker < n),
                };
                if replace {
                    *slot = Some((report.epoch, *worker));
                }
            }
        }
        let claimed_cells = best.iter().filter(|c| c.is_some()).count();
        let claimed: Vec<Option<NodeId>> = best.iter().map(|c| c.map(|(_, n)| n)).collect();
        let partition = PartitionMap::from_claims(grid, all_alive(&responders), &claimed);
        // The known roster keeps census-reported replica-log sources even
        // when they are down right now: they remain probe-able for rejoin.
        let mut known = responders.clone();
        for (_, report) in &reports {
            known.extend(report.replica_of.iter().copied());
        }
        // 5. Standing queries, from worker truth.
        let mut registrations: HashMap<ContinuousQueryId, Predicate> = HashMap::new();
        let mut max_id = 0u64;
        for (_, report) in &reports {
            for reg in &report.registrations {
                max_id = max_id.max(reg.id.0);
                registrations.entry(reg.id).or_insert(reg.predicate);
            }
        }
        self.partition = partition;
        self.alive = responders.clone();
        self.known = known;
        self.registrations = registrations;
        self.next_query_id = max_id + 1;
        self.promotion_failures = 0;
        self.registration_failures = 0;
        // A fresh incarnation starts with a fresh suspicion history.
        for &worker in &pool {
            self.exec.health().forget(worker);
        }
        // 6. Absorb replica logs held for dead members into their
        // holders' primaries (the new map owns those cells somewhere in
        // the surviving ring; repair redistributes afterwards), then make
        // the rebuilt plan visible in one publication.
        let mut dead: Vec<NodeId> = self.known.difference(&self.alive).copied().collect();
        dead.sort();
        for failed in dead {
            let holders: Vec<NodeId> = reports
                .iter()
                .filter(|(_, r)| r.replica_of.contains(&failed))
                .map(|(w, _)| *w)
                .collect();
            for target in holders {
                self.promote(target, failed, adopted);
            }
        }
        self.plane
            .publish_at(adopted, self.partition.clone(), self.alive.clone());
        self.broadcast_routes();
        self.reregister(None);
        self.repair_against(&self.partition, RepairBudget::bulk(), true);
        Ok(ReconstructReport {
            responders: all_alive(&responders),
            adopted_epoch: adopted,
            claimed_cells,
            recovered_registrations: self.registrations.len(),
        })
    }

    /// Collects statistics from every alive worker, plus the executor's
    /// per-operation telemetry and the live under-replication gauge (the
    /// latter costs one digest sweep when replication is enabled).
    ///
    /// # Errors
    ///
    /// Fails when a worker believed alive does not answer.
    pub fn stats(&self) -> Result<ClusterStats, StcamError> {
        let want = |response| match response {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", other)),
        };
        let workers = self
            .exec
            .ask("stats", &self.alive_workers(), |_| Request::Stats, want)
            .into_iter()
            .map(|(worker, stats)| stats.map(|s| (worker, s)))
            .collect::<Result<_, _>>()?;
        Ok(ClusterStats {
            workers,
            ops: self.exec.op_stats(),
            under_replicated_cells: self.under_replicated_cells(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(counts: &[u64]) -> ClusterStats {
        ClusterStats {
            workers: counts
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    (
                        NodeId(i as u32 + 1),
                        WorkerStatsMsg {
                            primary_observations: c,
                            ..Default::default()
                        },
                    )
                })
                .collect(),
            ops: Vec::new(),
            under_replicated_cells: 0,
        }
    }

    #[test]
    fn cluster_stats_totals_and_imbalance() {
        let s = stats_with(&[100, 100, 100, 100]);
        assert_eq!(s.total_primary(), 400);
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
        let skewed = stats_with(&[400, 0, 0, 0]);
        assert!((skewed.imbalance() - 4.0).abs() < 1e-12);
        // Degenerate cases fall back to 1.0.
        assert_eq!(stats_with(&[]).imbalance(), 1.0);
        assert_eq!(stats_with(&[0, 0]).imbalance(), 1.0);
    }

    #[test]
    fn cluster_stats_op_lookup() {
        let mut s = stats_with(&[1]);
        s.ops.push((
            "range",
            OpStats {
                invocations: 3,
                ..Default::default()
            },
        ));
        assert_eq!(s.op("range").invocations, 3);
        assert_eq!(s.op("heatmap"), OpStats::default());
    }

    #[test]
    fn rebalance_report_is_plain_data() {
        let r = RebalanceReport {
            cells_moved: 3,
            observations_moved: 42,
            imbalance_before: 2.5,
            imbalance_after: 1.1,
        };
        let s = format!("{r:?}");
        assert!(s.contains("cells_moved: 3"));
        assert!(r.imbalance_after < r.imbalance_before);
    }
}
