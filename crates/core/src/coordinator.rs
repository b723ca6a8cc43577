//! The coordinator: the mutex-guarded **control plane** — routing,
//! membership, and continuous-query bookkeeping, plus one control loop
//! that keeps the cluster at its desired state. Neither reads nor writes
//! pass through here: reads run on the lock-free
//! [`QueryPlane`](crate::QueryPlane) this publishes plans to, and acked
//! writes go through [`Ingestor`](crate::Ingestor)s, which read the same
//! published plan and never take this lock.
//!
//! Every control message is a [`Request`] this module spells and hands
//! to [`Executor::ask`] under the name that keys its policy and
//! telemetry. Rebalance, failover, rejoin, repair and reconstruction
//! differ only in how they change the desired state — the target
//! [`PartitionMap`], the alive set, the fenced epoch; one loop
//! (`crate::reconcile`) then observes the workers, diffs and acts until
//! nothing is left to do. Read composition (two-phase kNN, heat-maps, …)
//! lives in [`QueryPlane`] so it can run without this lock.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use stcam_geo::{TimeInterval, Timestamp};
use stcam_net::{Endpoint, NodeId};

use crate::continuous::{ContinuousQueryId, Predicate};
use crate::error::StcamError;
use crate::exec::OpStats;
use crate::exec::{all_alive, region_targets, unexpected, want_ack, Executor, HeatmapOp, OpPolicy};
use crate::partition::PartitionMap;
use crate::plane::{QueryOpts, QueryPlane};
use crate::protocol::{CensusReport, Request, Response, WorkerStatsMsg};
use crate::reconcile::{self, sweep, tell, traffic, Action, Desired, Wire};
use crate::repair::{RepairReport, MAX_ROUNDS, ROUND_STREAM};

/// Aggregated statistics across the cluster.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Per-worker statistics (alive workers only).
    pub workers: Vec<(NodeId, WorkerStatsMsg)>,
    /// Per-operation executor telemetry, sorted by operation name.
    pub ops: Vec<(&'static str, OpStats)>,
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
    /// Rows shipped between primary shards: every moved row once in the
    /// copy, plus, for cells written to during the move, what the drain
    /// ships (stragglers, and the old owner's unsealed head again).
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

/// One run of the control loop: the cells it copied (the diff's only
/// memory between rounds), whether its cutover reached all, its tally.
#[derive(Debug, Default)]
struct Run {
    copied: HashSet<u32>,
    report: RepairReport,
    /// Rows shipped between primary shards (copies and drains).
    moved: usize,
    /// The last failed action's error.
    error: Option<StcamError>,
    /// Whether every alive worker installed the route this run published.
    routed: bool,
}

/// The cluster's control plane and query router.
///
/// The coordinator is driven synchronously by the client thread: route
/// publication and failure recovery are plain method calls. Fan-out,
/// retry, and telemetry live in the [`Executor`]; reads live in the
/// [`QueryPlane`], writes in [`Ingestor`](crate::Ingestor)s. The control
/// loop publishes a fresh [`QueryPlan`](crate::QueryPlan) at each
/// cutover, so lock-free readers and writers observe it.
#[derive(Debug)]
pub struct Coordinator {
    exec: Executor,
    plane: Arc<QueryPlane>,
    /// The partition map the control loop drives the cluster to; the
    /// published one is the plane's.
    target: PartitionMap,
    replication: usize,
    /// The workers to publish as alive.
    alive: HashSet<NodeId>,
    /// The highest epoch a reconstructing census reported: the next
    /// published plan must outrank it.
    fence: u64,
    /// Every worker ever admitted, dead or alive: the roster
    /// [`check_and_recover`](Self::check_and_recover) probes for restarts.
    known: HashSet<NodeId>,
    next_query_id: u64,
    /// Standing queries by id, kept for re-registration at each cutover.
    registrations: BTreeMap<ContinuousQueryId, Predicate>,
}

impl Coordinator {
    /// Creates a coordinator over an already-partitioned cluster.
    ///
    /// `endpoint` carries control-plane traffic (routes, probes,
    /// migration, standing-query registrations); `query_endpoints` become
    /// the query plane's pool — at least one. Standing-query matches never
    /// reach the coordinator: they ride the ingest replies to the writers.
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
        // Acked writes (every `Ingestor` asks under these names from the
        // shared table): up to five sends, five whole timeouts of patience.
        let write = OpPolicy {
            timeout: rpc_timeout,
            max_attempts: 5,
        };
        exec.set_policy("ingest_seq", write);
        exec.set_policy("replicate_seq", write);
        // Pooled executors share the coordinator executor's account:
        // one telemetry registry, one policy table, one peer table.
        let shared = exec.shared();
        let pool: Vec<Executor> = query_endpoints
            .into_iter()
            .map(|ep| Executor::with_shared(ep, Arc::clone(&shared)))
            .collect();
        let plane = Arc::new(QueryPlane::new(pool, partition.clone(), alive.clone()));
        Coordinator {
            exec,
            plane,
            known: alive.clone(),
            target: partition,
            replication,
            alive,
            fence: 0,
            next_query_id: 1,
            registrations: BTreeMap::new(),
        }
    }

    /// The lock-free query plane fed by this coordinator's plan
    /// publications. Clone the `Arc` and issue reads from any thread
    /// without taking the control-plane lock.
    pub fn query_plane(&self) -> Arc<QueryPlane> {
        Arc::clone(&self.plane)
    }

    /// Installs a timeout/retry policy override for the named operation.
    pub fn set_op_policy(&self, op: &'static str, policy: OpPolicy) {
        self.exec.set_policy(op, policy);
    }

    /// The workers to publish as alive, in id order.
    fn alive_workers(&self) -> Vec<NodeId> {
        all_alive(&self.alive)
    }

    /// Pushes every alive worker its slice of the published plan (epoch
    /// and owned cells), arming the misroute NACK that lets stale senders
    /// self-heal, and returns the workers that installed it. One that
    /// misses it keeps its older route until a control-loop drain round
    /// re-sends it.
    pub fn broadcast_routes(&self) -> Vec<NodeId> {
        let plan = self.plane.plan();
        let route = |to| Request::RouteUpdate {
            epoch: plan.epoch,
            grid: *plan.partition.grid(),
            cells: plan.partition.packed_cells_of(to),
        };
        let workers = self.alive_workers();
        let answers = self.exec.ask("route_update", &workers, route, want_ack);
        let acked = answers.into_iter().filter(|(_, answer)| answer.is_ok());
        acked.map(|(worker, _)| worker).collect()
    }

    /// All-time observation counts per macro cell (row-major) under the
    /// published plan: the load profile rebalance and rejoin partition by.
    fn cell_loads(&self, opts: &QueryOpts) -> Result<Vec<u64>, StcamError> {
        let loads = HeatmapOp {
            buckets: *self.target.grid(),
            window: TimeInterval::ALL,
        };
        self.plane.query(loads, opts).map(|d| d.value)
    }

    /// Ages out observations older than `cutoff` everywhere.
    ///
    /// # Errors
    ///
    /// Propagates worker failures.
    pub fn evict_before(&self, cutoff: Timestamp) -> Result<(), StcamError> {
        let epoch = self.plane.epoch();
        let sweep = |_| Request::EvictBefore { cutoff, epoch };
        tell(&self.exec, "evict", &self.alive_workers(), sweep)
    }

    // ------------------------------------------------------------------
    // The control loop
    // ------------------------------------------------------------------

    /// The desired state the control loop drives the cluster to.
    fn desired(&self) -> Desired<'_> {
        Desired {
            map: &self.target,
            alive: &self.alive,
            replication: self.replication,
            fence: self.fence,
        }
    }

    /// The newest epoch the cluster has seen: the published plan's, or a
    /// census-reported one above it.
    fn epoch(&self) -> u64 {
        self.plane.epoch().max(self.fence)
    }

    /// The control loop ([`reconcile`](crate::reconcile)), until the diff
    /// is empty or [`MAX_ROUNDS`] rounds are spent.
    /// The run itself never fails.
    fn reconcile(&mut self) -> Run {
        let mut run = Run::default();
        let grid = *self.target.grid();
        let traffic_before = traffic(&self.exec);
        loop {
            let plan = self.plane.plan();
            let mut observed = sweep(&self.exec, grid, &self.alive_workers());
            let mut diff = reconcile::diff(self.desired(), &plan, &observed, &run.copied);
            let drain = |a: &Action| matches!(a, Action::Drain { .. });
            if diff.actions.iter().any(drain) && !run.routed {
                // Drains trust only digests taken once each holder's route
                // makes it NACK writes to the cells it cedes (as after a
                // cutover every alive worker acknowledged).
                observed = sweep(&self.exec, grid, &self.broadcast_routes());
                diff = reconcile::diff(self.desired(), &plan, &observed, &run.copied);
            }
            if run.report.rounds == 0 {
                run.report.under_replicated_before = diff.under_replicated_cells;
            }
            run.report.under_replicated_after = diff.under_replicated_cells;
            run.report.converged = diff.actions.is_empty();
            if run.report.converged || run.report.rounds >= MAX_ROUNDS {
                break;
            }
            run.report.rounds += 1;
            self.act(&diff.actions, &mut run);
            // A round that only cut over, with nothing copied this run,
            // changed no data and moved no cell between alive workers: its
            // digests still hold against the new plan.
            if diff.actions == [Action::Publish] && run.copied.is_empty() {
                let plan = self.plane.plan();
                let left = reconcile::diff(self.desired(), &plan, &observed, &run.copied);
                run.report.converged = left.actions.is_empty();
                if run.report.converged {
                    break;
                }
            }
        }
        if run.report.rounds > 0 {
            let streamed = traffic(&self.exec).saturating_sub(traffic_before);
            self.exec.note_repair(run.report.rounds as u64, streamed);
        }
        run
    }

    /// Runs one round's actions in order. No `Promote`, `Publish` or drop
    /// of a dead primary's log runs after a failure: a promotion empties
    /// the log failover reads of a dead owner's cells use, so the cutover
    /// that moves those reads must follow; a cutover needs its copies; a
    /// drop may rest on a promotion. Covers stop at [`ROUND_STREAM`] rows
    /// unless the round cuts over.
    fn act(&mut self, actions: &[Action], run: &mut Run) {
        let mut wire = Wire::new(&self.exec, *self.target.grid());
        let cuts_over = actions.contains(&Action::Publish);
        let mut stream_left = if cuts_over { usize::MAX } else { ROUND_STREAM };
        let mut clean = true;
        for &action in actions {
            let done = match action {
                Action::Ship {
                    cell,
                    from,
                    to,
                    whole,
                } => wire.ship(cell, from, to, whole).map(|rows| {
                    run.copied.insert(cell);
                    run.moved += rows;
                }),
                Action::Cover { .. } if stream_left == 0 => {
                    clean = false; // re-planned next round
                    continue;
                }
                Action::Cover {
                    cell,
                    owner,
                    holder,
                } => wire.cover(cell, owner, holder).map(|rows| {
                    stream_left = stream_left.saturating_sub(rows);
                    run.report.cells_repaired += 1;
                    run.report.observations_streamed += rows;
                }),
                Action::Drain {
                    cell,
                    from,
                    to,
                    ship,
                } => wire.drain(cell, from, to, ship).map(|rows| {
                    run.moved += rows;
                    run.report.cells_repaired += 1;
                    run.report.observations_streamed += rows;
                }),
                Action::Truncate { primary, .. } if !clean && !self.alive.contains(&primary) => {
                    continue
                }
                Action::Truncate {
                    holder,
                    primary,
                    cell,
                } => {
                    let dropped = wire.overwrite(holder, primary, cell, &[]);
                    dropped.map(|()| run.report.cells_repaired += 1)
                }
                Action::Promote { .. } | Action::Publish if !clean => continue,
                Action::Promote { holder, failed } => {
                    let epoch = self.epoch();
                    let absorb = |_| Request::Promote { failed, epoch };
                    tell(&self.exec, "promote", &[holder], absorb)
                }
                Action::Publish => self.publish().map(|routed| run.routed = routed),
            };
            if let Err(e) = done {
                clean = false;
                run.error = Some(e);
            }
        }
    }

    /// The cutover, the one place a plan is published. First every
    /// standing query is registered where its region lies under the
    /// desired map (twice is a no-op), so no write the new plan routes
    /// reaches an owner without it; a failed registration fails the
    /// cutover, which the loop retries like a promotion. Then the desired
    /// map and alive set are published and every alive worker gets its
    /// route. Returns whether every alive worker installed it.
    fn publish(&self) -> Result<bool, StcamError> {
        for (&id, &predicate) in &self.registrations {
            self.register(&self.target, &self.alive, id, predicate)?;
        }
        let epoch = self.epoch() + 1;
        self.plane
            .publish_at(epoch, self.target.clone(), self.alive.clone());
        Ok(self.broadcast_routes().len() == self.alive.len())
    }

    /// Re-partitions the cluster by *measured* per-cell load over the
    /// alive ring and makes that the desired map; the control loop copies
    /// each moved cell, covers the new owners' replica chains, cuts over,
    /// and drains what the old owners accepted meanwhile. Acked data
    /// survives; live [`Ingestor`](crate::Ingestor)s re-route on the
    /// misroute NACK the cutover arms.
    ///
    /// # Errors
    ///
    /// The last worker failure when the round budget ran out before the
    /// cutover. The old map then stays published and the new one
    /// desired: the next [`repair`](Self::repair) or recovery tick resumes
    /// the move.
    pub fn rebalance(&mut self) -> Result<RebalanceReport, StcamError> {
        let published = self.plane.plan().partition.clone();
        let grid = *published.grid();
        let loads = self.cell_loads(&QueryOpts::STRICT)?;
        let ring = self.target.workers().iter().copied();
        let ring: Vec<NodeId> = ring.filter(|w| self.alive.contains(w)).collect();
        if ring.is_empty() {
            return Err(StcamError::NoQuorum);
        }
        self.target = PartitionMap::load_aware(grid.extent(), grid.cell_size(), ring, &loads);
        let moved = |&cell: &_| published.owner_of_cell(cell) != self.target.owner_of_cell(cell);
        let cells_moved = grid.all_cells().filter(moved).count();
        let run = self.reconcile();
        if self.plane.plan().partition != self.target {
            return Err(run.error.unwrap_or(StcamError::NoQuorum));
        }
        Ok(RebalanceReport {
            cells_moved,
            observations_moved: run.moved,
            imbalance_before: published.imbalance(&loads),
            imbalance_after: self.target.imbalance(&loads),
        })
    }

    /// Runs the control loop: publishes a pending desired state, promotes
    /// dead primaries' logs, drains stray primary copies (at any factor)
    /// and streams missing or diverged replica copies until the factor
    /// holds everywhere or the round budget runs out (re-invoke). Worker
    /// failures are re-planned next round; the run never fails.
    pub fn repair(&mut self) -> RepairReport {
        self.reconcile().report
    }

    /// Distinct owned macro-cells currently missing at least one required
    /// replica copy, per one digest sweep (0, and no sweep, with
    /// replication disabled): the gauge [`repair`](Self::repair) drives
    /// to zero.
    pub fn under_replicated_cells(&self) -> usize {
        if self.replication == 0 {
            return 0;
        }
        let observed = sweep(&self.exec, *self.target.grid(), &self.alive_workers());
        let copied = HashSet::new();
        let diff = reconcile::diff(self.desired(), &self.plane.plan(), &observed, &copied);
        diff.under_replicated_cells
    }

    // ------------------------------------------------------------------
    // Continuous queries
    // ------------------------------------------------------------------

    /// Registers a standing query at the owners its region overlaps under
    /// the published plan; every later cutover registers it again under
    /// the plan it publishes. Its matches ride the ingest replies (see
    /// [`Cluster::poll_notifications`](crate::Cluster::poll_notifications)).
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
        let plan = self.plane.plan();
        self.register(&plan.partition, &plan.alive, id, predicate)?;
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
        tell(
            &self.exec,
            "unregister_continuous",
            &self.alive_workers(),
            remove,
        )
    }

    /// Installs a standing query at the workers of `alive` whose cells
    /// under `partition` its region overlaps.
    fn register(
        &self,
        partition: &PartitionMap,
        alive: &HashSet<NodeId>,
        id: ContinuousQueryId,
        predicate: Predicate,
    ) -> Result<(), StcamError> {
        let targets = region_targets(partition, alive, predicate.region);
        let install = |_| Request::RegisterContinuous { id, predicate };
        tell(&self.exec, "register_continuous", &targets, install)
    }

    // ------------------------------------------------------------------
    // Membership and recovery
    // ------------------------------------------------------------------

    /// Probes every worker believed alive and fails each silent one out,
    /// giving its cells to its first alive ring successor (its replica
    /// log's holder when the factor covers it), then readmits each dead
    /// worker that answers again; the control loop reaches the new
    /// desired state. Returns the newly failed workers.
    pub fn check_and_recover(&mut self) -> Vec<NodeId> {
        let answered = self.responders(&self.alive);
        let failed: Vec<NodeId> = self
            .alive_workers()
            .into_iter()
            .filter(|worker| !answered.contains(worker))
            .collect();
        self.alive.retain(|worker| answered.contains(worker));
        for &worker in &failed {
            let heir = self.target.alive_successors(worker, 1, &self.alive);
            if let Some(&heir) = heir.first() {
                self.target.reassign(worker, heir);
            }
        }
        self.readmit();
        if !self.desired().is_published(&self.plane.plan()) {
            self.reconcile();
        }
        failed
    }

    /// Pings `nodes` under the "probe" policy (single-attempt by default:
    /// a timeout *is* the signal) and returns who answered, in id order.
    fn responders(&self, nodes: &HashSet<NodeId>) -> Vec<NodeId> {
        let ping = |_| Request::Ping;
        let answers = self.exec.ask("probe", &all_alive(nodes), ping, want_ack);
        let answered = answers.into_iter().filter(|(_, answer)| answer.is_ok());
        answered.map(|(worker, _)| worker).collect()
    }

    /// Readmits each known-but-dead worker that answers a probe: the
    /// `Rejoin` handshake resets it and installs its route at the epoch
    /// the cutover will publish, and it is desired alive again with a
    /// fair share of the load carved from the most loaded workers (so the
    /// covering stays proportional to the share moved).
    fn readmit(&mut self) {
        let dead: HashSet<NodeId> = self.known.difference(&self.alive).copied().collect();
        if dead.is_empty() {
            return;
        }
        let grid = *self.target.grid();
        for worker in self.responders(&dead) {
            let loads = self.cell_loads(&QueryOpts::BEST_EFFORT);
            let loads = loads.unwrap_or_else(|_| vec![1; grid.cell_count() as usize]);
            let target = self.target.admit(worker, &loads);
            let handshake = |_| Request::Rejoin {
                epoch: self.epoch() + 1,
                grid,
                cells: target.packed_cells_of(worker),
            };
            if tell(&self.exec, "rejoin", &[worker], handshake).is_ok() {
                self.target = target;
                self.alive.insert(worker);
                // A fresh incarnation starts with no failure streak.
                self.exec.peers().forget(worker);
            }
        }
    }

    // ------------------------------------------------------------------
    // Coordinator crash recovery
    // ------------------------------------------------------------------

    /// Standing-query registrations currently tracked by the control
    /// plane, id-sorted. After [`reconstruct`](Self::reconstruct) this is
    /// exactly what the surviving workers reported.
    pub fn registrations(&self) -> Vec<(ContinuousQueryId, Predicate)> {
        self.registrations.iter().map(|(&id, &p)| (id, p)).collect()
    }

    /// Rebuilds this coordinator's entire volatile state from the
    /// surviving cluster, the way a freshly started instance recovers
    /// after a crash: nothing the previous incarnation believed is
    /// trusted, only what workers report.
    ///
    /// The responders to a probe of `candidates` are the alive set, and
    /// their census the desired state: per cell the claim installed at
    /// the highest epoch wins (lowest node id on ties; unclaimed cells
    /// follow the Z-order curve). The plan the control loop publishes
    /// outranks every reported and published epoch, fencing out stale
    /// instances. Silent candidates and census-named replica-log sources
    /// stay on the roster [`check_and_recover`](Self::check_and_recover)
    /// probes for rejoins.
    ///
    /// # Errors
    ///
    /// [`StcamError::NoQuorum`] when no candidate answers the probe; the
    /// previous state is left untouched in that case. The last worker
    /// failure when the round budget ran out before the fenced plan was
    /// published (a promotion it waits on kept failing): the census state
    /// then stays desired, and the next [`repair`](Self::repair) or
    /// recovery tick resumes it.
    pub fn reconstruct(&mut self, candidates: &[NodeId]) -> Result<ReconstructReport, StcamError> {
        let pool: HashSet<NodeId> = candidates.iter().copied().collect();
        let responders: HashSet<NodeId> = self.responders(&pool).into_iter().collect();
        if responders.is_empty() {
            return Err(StcamError::NoQuorum);
        }
        // One round: a non-answer only narrows the evidence.
        let want = |response| match response {
            Response::Census(report) => Ok(report),
            other => Err(unexpected("census", other)),
        };
        let census = self
            .exec
            .ask("census", &all_alive(&responders), |_| Request::Census, want);
        let reports: Vec<(NodeId, CensusReport)> = census
            .into_iter()
            .filter_map(|(worker, result)| result.ok().map(|r| (worker, r)))
            .collect();
        // Claims compare only within one grid: reports on a foreign grid
        // (none occur in practice) claim nothing.
        let grid = reports
            .iter()
            .filter_map(|(_, r)| r.grid.map(|g| (r.epoch, g)))
            .max_by_key(|(epoch, _)| *epoch)
            .map_or(*self.target.grid(), |(_, g)| g);
        let mut best: BTreeMap<u32, (u64, Reverse<NodeId>)> = BTreeMap::new();
        for (worker, report) in reports.iter().filter(|(_, r)| r.grid == Some(grid)) {
            for &cell in &report.cells {
                let claim = (report.epoch, Reverse(*worker));
                let held = best.entry(cell).or_insert(claim);
                *held = (*held).max(claim);
            }
        }
        let claims = (0..grid.cell_count() as u32).map(|c| best.get(&c).map(|(_, w)| w.0));
        let claimed: Vec<Option<NodeId>> = claims.collect();
        self.target = PartitionMap::from_claims(grid, all_alive(&responders), &claimed);
        self.known = pool.clone();
        self.registrations.clear();
        for (_, report) in &reports {
            self.known.extend(report.replica_of.iter().copied());
            for r in &report.registrations {
                self.registrations.insert(r.id, r.predicate);
            }
        }
        let last = self.registrations.keys().map(|id| id.0).max();
        self.next_query_id = last.unwrap_or(0) + 1;
        self.alive = responders;
        let census_max = reports.iter().map(|(_, r)| r.epoch).max().unwrap_or(0);
        self.fence = census_max.max(self.plane.epoch());
        // A fresh incarnation starts with no failure streaks.
        for &worker in &pool {
            self.exec.peers().forget(worker);
        }
        let run = self.reconcile();
        if !self.desired().is_published(&self.plane.plan()) {
            return Err(run.error.unwrap_or(StcamError::NoQuorum));
        }
        Ok(ReconstructReport {
            responders: self.alive_workers(),
            adopted_epoch: self.plane.epoch(),
            claimed_cells: claimed.iter().flatten().count(),
            recovered_registrations: self.registrations.len(),
        })
    }

    /// Collects statistics from every alive worker (one `Stats` round
    /// trip each, no digest sweep), plus the executor's per-operation
    /// telemetry. The under-replication gauge is
    /// [`under_replicated_cells`](Self::under_replicated_cells).
    ///
    /// # Errors
    ///
    /// Fails when a worker believed alive does not answer.
    pub fn stats(&self) -> Result<ClusterStats, StcamError> {
        let want = |response| match response {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", other)),
        };
        let answers = self
            .exec
            .ask("stats", &self.alive_workers(), |_| Request::Stats, want);
        let workers = answers
            .into_iter()
            .map(|(to, s)| s.map(|s| (to, s)))
            .collect::<Result<_, _>>()?;
        Ok(ClusterStats {
            workers,
            ops: self.exec.op_stats(),
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
}
