//! The lock-free query plane: epoch-published routing plans and a pool
//! of per-caller executors.
//!
//! Historically every read went through the coordinator's mutex, so N
//! client threads serialised on a single lock (and a single fabric
//! endpoint) even though scatter/gather itself is embarrassingly
//! parallel. This module splits that responsibility:
//!
//! * The **control plane** (the [`Coordinator`](crate::Coordinator),
//!   still mutex-guarded) owns membership, recovery, rebalance, and the
//!   continuous-query registry. Whenever it mutates the partition map or
//!   the alive set it *publishes* a fresh immutable [`QueryPlan`]
//!   snapshot here, tagged with a monotonically increasing epoch.
//! * The **query plane** ([`QueryPlane`]) serves reads. A query clones
//!   the current `Arc<QueryPlan>` (one brief `RwLock` read — never held
//!   across I/O), picks a pooled [`Executor`] round-robin, and runs the
//!   scatter/gather entirely against that immutable snapshot. Reads
//!   share **no** lock with each other or with the control plane.
//!
//! Consistency model: a query runs against the plan that was current
//! when it started. A concurrently published plan (failover, rebalance)
//! is observed by the *next* query. Stale-plan sub-queries that hit a
//! dead worker are absorbed by the executor's replica-failover path and
//! surface, at worst, as a [`Completeness`] deficit — exactly the same
//! contract as before, minus the global lock.
//!
//! All pooled executors share one [`ExecShared`](crate::exec) account,
//! so per-operation telemetry, policy overrides, and the
//! [`PeerTable`] are cluster-wide no matter which endpoint carried a
//! given call.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use stcam_camnet::Observation;
use stcam_geo::{Point, TimeInterval};
use stcam_net::{NodeId, PeerTable};

use crate::admission::{AdmissionControl, AdmissionTicket, Deadline, QueryCtx};
use crate::error::StcamError;
use crate::exec::{
    Completeness, Degraded, DistributedOp, ExecShared, Executor, KnnOp, KnnTargets, OpStats,
    QueryMode,
};
use crate::partition::PartitionMap;

/// An immutable routing snapshot: everything a read needs to scatter.
///
/// Published as a whole by the control plane; readers clone the `Arc`
/// and never observe a partially updated map/alive-set pair.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Publication counter; strictly increasing, starts at 1.
    pub epoch: u64,
    /// The partition map current at publication time.
    pub partition: PartitionMap,
    /// The workers believed alive at publication time.
    pub alive: HashSet<NodeId>,
}

/// The concurrent read path: an epoch-published [`QueryPlan`] plus a
/// pool of fabric endpoints, one of which each query borrows
/// round-robin.
///
/// All methods take `&self` and are safe to call from any number of
/// threads; none of them acquires the coordinator's control-plane lock.
#[derive(Debug)]
pub struct QueryPlane {
    plan: RwLock<Arc<QueryPlan>>,
    pool: Vec<Executor>,
    next: AtomicUsize,
    /// The multi-tenant gate a query with a [`QueryOpts::ctx`] passes
    /// before scattering. Context-free queries bypass it, so
    /// single-tenant embedders pay nothing.
    admission: Arc<AdmissionControl>,
}

impl QueryPlane {
    /// Builds the plane over an executor pool and an initial plan
    /// (published as epoch 1).
    ///
    /// # Panics
    ///
    /// Panics when `pool` is empty: a query plane with no endpoint
    /// cannot serve reads.
    pub(crate) fn new(
        pool: Vec<Executor>,
        partition: PartitionMap,
        alive: HashSet<NodeId>,
    ) -> Self {
        assert!(!pool.is_empty(), "query plane needs at least one endpoint");
        QueryPlane {
            plan: RwLock::new(Arc::new(QueryPlan {
                epoch: 1,
                partition,
                alive,
            })),
            pool,
            next: AtomicUsize::new(0),
            admission: Arc::new(AdmissionControl::new()),
        }
    }

    /// The multi-tenant admission gate: register budgets, configure the
    /// saturation width, and read per-tenant usage through this handle.
    pub fn admission(&self) -> &Arc<AdmissionControl> {
        &self.admission
    }

    /// The current plan snapshot. Cheap: one `RwLock` read and an `Arc`
    /// clone; the lock is released before this returns.
    pub fn plan(&self) -> Arc<QueryPlan> {
        Arc::clone(&self.plan.read())
    }

    /// The epoch of the currently published plan.
    pub fn epoch(&self) -> u64 {
        self.plan.read().epoch
    }

    /// Atomically replaces the published plan with `partition`/`alive`
    /// at `epoch` — one past the newest epoch the control plane has seen,
    /// which after a coordinator reconstruction is the surviving workers'
    /// census maximum rather than this instance's own counter. In-flight
    /// queries keep their old snapshot, subsequent queries observe this
    /// one. Refuses to move the plane backwards: the published epoch is
    /// monotone even across a botched reconstruction.
    ///
    /// # Panics
    ///
    /// Panics when `epoch` is not beyond the currently published epoch.
    pub(crate) fn publish_at(
        &self,
        epoch: u64,
        partition: PartitionMap,
        alive: HashSet<NodeId>,
    ) -> u64 {
        let mut slot = self.plan.write();
        assert!(
            epoch > slot.epoch,
            "epoch {} must exceed the published epoch {}",
            epoch,
            slot.epoch
        );
        *slot = Arc::new(QueryPlan {
            epoch,
            partition,
            alive,
        });
        epoch
    }

    /// Borrows the next pooled executor round-robin. Endpoints support
    /// concurrent calls (correlation ids), so even `threads > pool`
    /// oversubscription stays correct — pooling only spreads contention.
    fn executor(&self) -> &Executor {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        &self.pool[n % self.pool.len()]
    }

    /// The executor account every pooled endpoint and the control plane
    /// share; an [`Ingestor`](crate::Ingestor) joins it so writes book
    /// beside reads.
    pub(crate) fn exec_shared(&self) -> Arc<ExecShared> {
        self.pool[0].shared()
    }

    /// The peer table every pooled endpoint and the control plane share.
    pub(crate) fn peers(&self) -> &PeerTable {
        self.pool[0].peers()
    }

    /// Cluster-wide per-operation telemetry, sorted by operation name.
    /// One account across the coordinator and every pooled endpoint.
    pub fn op_stats(&self) -> Vec<(&'static str, OpStats)> {
        self.pool[0].op_stats()
    }

    /// The one read entry: runs `q` against one plan snapshot on one
    /// pooled executor, taking no lock shared with other reads or with
    /// the control plane.
    ///
    /// `opts.ctx: None` is the single-tenant path and never consults the
    /// admission gate. With `Some(ctx)` the query is admitted first
    /// (possibly shed: downgraded to best-effort with the reason in
    /// [`Completeness::shed`]), runs with no sub-query waiting past the
    /// tenant's deadline, and has its wire bytes charged to
    /// the tenant afterwards — one ticket across all of a composite
    /// query's phases. Scatter width is reserved as the alive set, the
    /// upper bound every broadcast-shaped read obeys.
    ///
    /// # Errors
    ///
    /// [`StcamError::AdmissionRejected`] when a budget or the deadline
    /// turns the query away; with an effective [`QueryMode::Strict`],
    /// [`StcamError::PartialFailure`] when a shard answered from neither
    /// its primary nor a replica; whatever `q` itself reports (see
    /// [`Knn`]).
    pub fn query<Q: Query>(
        &self,
        q: Q,
        opts: &QueryOpts,
    ) -> Result<Degraded<Q::Output>, StcamError> {
        let plan = self.plan();
        let ticket = opts
            .ctx
            .as_ref()
            .map(|ctx| {
                self.admission
                    .admit(ctx, opts.mode, plan.alive.len().max(1))
            })
            .transpose()?;
        let bytes = AtomicU64::new(0);
        let mut d = q.run(&Scatter {
            exec: self.executor(),
            plan: &plan,
            deadline: ticket.as_ref().and_then(AdmissionTicket::deadline),
            bytes: ticket.is_some().then_some(&bytes),
        })?;
        let mode = match &ticket {
            Some(ticket) => {
                ticket.charge_bytes(bytes.load(Ordering::Relaxed));
                d.completeness.shed = ticket.shed().or(d.completeness.shed);
                ticket.mode()
            }
            None => opts.mode,
        };
        if mode == QueryMode::Strict && !d.completeness.is_full() {
            return Err(StcamError::PartialFailure {
                missing: d.completeness.missing,
            });
        }
        Ok(d)
    }
}

/// What the method suffix used to carry: how a read treats lost shards
/// and on whose account it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOpts {
    /// Strict (exact or [`StcamError::PartialFailure`]) or best-effort
    /// (a truthful [`Completeness`] account of what is missing).
    pub mode: QueryMode,
    /// The tenant context to admit, bound by a deadline and meter under;
    /// `None` bypasses the admission gate entirely.
    pub ctx: Option<QueryCtx>,
}

impl QueryOpts {
    /// Exact or error, no tenant.
    pub const STRICT: QueryOpts = QueryOpts {
        mode: QueryMode::Strict,
        ctx: None,
    };
    /// Whatever shards survive, truthfully accounted, no tenant.
    pub const BEST_EFFORT: QueryOpts = QueryOpts {
        mode: QueryMode::BestEffort,
        ctx: None,
    };
}

/// What a [`Query`] scatters against: one pooled executor, one plan
/// snapshot, and the admitting tenant's deadline and byte account.
#[derive(Debug)]
pub struct Scatter<'a> {
    exec: &'a Executor,
    plan: &'a QueryPlan,
    deadline: Option<Deadline>,
    bytes: Option<&'a AtomicU64>,
}

impl Scatter<'_> {
    /// Runs one op's failover scatter/gather; lost shards show up in the
    /// result's [`Completeness`], never as an error.
    pub fn run<O: DistributedOp>(&self, op: O) -> Degraded<O::Output> {
        self.exec.execute_degraded(
            op,
            &self.plan.partition,
            &self.plan.alive,
            self.deadline,
            self.bytes,
        )
    }
}

/// A typed read with a statically known answer — the value
/// [`Cluster::query`](crate::Cluster::query) takes. Every [`DistributedOp`]
/// ([`RangeOp`](crate::RangeOp), [`HeatmapOp`](crate::HeatmapOp),
/// [`TopCellsOp`](crate::TopCellsOp), [`KnnOp`]) is one; [`Knn`] composes
/// two.
pub trait Query {
    /// What the read answers with.
    type Output;

    /// Runs every phase of the read against the one snapshot in `on`.
    ///
    /// # Errors
    ///
    /// Only for failures that are not lost shards (those are accounted
    /// in the result).
    fn run(self, on: &Scatter<'_>) -> Result<Degraded<Self::Output>, StcamError>;
}

impl<O: DistributedOp> Query for O {
    type Output = O::Output;
    fn run(self, on: &Scatter<'_>) -> Result<Degraded<O::Output>, StcamError> {
        Ok(on.run(self))
    }
}

/// The `k` observations nearest to `at` within `window`, via two-phase
/// pruned search: the owner of `at`'s cell answers first
/// (`"knn_phase1"`), its k-th distance bounds the disk phase two scatters
/// to (`"knn_phase2"`). Both phases are [`KnnOp`]s run against one plan
/// snapshot, so an interleaved failover cannot split the query across
/// two routing views, and their completeness accounts are folded
/// together. A degraded kNN is *not* a subset of the true answer
/// (`subset == false`): a lost shard can promote farther neighbours into
/// the top `k`.
///
/// Fails with [`StcamError::NoQuorum`] when no worker can anchor phase
/// one.
#[derive(Debug, Clone, Copy)]
pub struct Knn {
    /// Query point.
    pub at: Point,
    /// Temporal predicate.
    pub window: TimeInterval,
    /// Result size.
    pub k: usize,
}

impl Query for Knn {
    type Output = Vec<Observation>;
    fn run(self, on: &Scatter<'_>) -> Result<Degraded<Vec<Observation>>, StcamError> {
        let Knn { at, window, k } = self;
        if k == 0 {
            return Ok(Degraded {
                value: Vec::new(),
                completeness: Completeness {
                    subset: true,
                    ..Completeness::default()
                },
            });
        }
        let owner = route_owner(
            on.plan.partition.owner_of(at),
            &on.plan.partition,
            &on.plan.alive,
            on.exec.peers(),
        )?;
        let phase1 = on.run(KnnOp::new(at, window, k, KnnTargets::Owner(owner)));
        let mut completeness = phase1.completeness;
        let seed = phase1.value;
        // The k-th distance, when phase one filled up (`k > 0` here).
        let bound = seed.get(k - 1).map(|o| at.distance(o.position));
        let phase2 = on.run(KnnOp {
            bound,
            seed,
            ..KnnOp::new(at, window, k, KnnTargets::DiskExcept(owner))
        });
        completeness.absorb(phase2.completeness);
        Ok(Degraded {
            value: phase2.value,
            completeness,
        })
    }
}

/// Resolves `owner` to the node that should actually receive its
/// traffic, diverting along the ring when the owner is marked dead — or
/// merely *suspected* dead by the [`PeerTable`], so a crashed node
/// stops receiving traffic after its first failed RPC instead of after
/// the next recovery tick. Anchors kNN phase one.
///
/// # Errors
///
/// [`StcamError::NoQuorum`] when no alive candidate exists.
fn route_owner(
    owner: NodeId,
    partition: &PartitionMap,
    alive: &HashSet<NodeId>,
    peers: &PeerTable,
) -> Result<NodeId, StcamError> {
    if alive.contains(&owner) && !peers.is_suspect(owner) {
        return Ok(owner);
    }
    let successor = |require_healthy: bool| {
        partition
            .successors(owner, partition.workers().len() - 1)
            .into_iter()
            .find(|&w| alive.contains(&w) && (!require_healthy || !peers.is_suspect(w)))
    };
    if let Some(w) = successor(true) {
        return Ok(w);
    }
    // Everyone is suspect: a suspect-but-alive owner still beats
    // nothing (suspicion may be a false positive under load).
    if alive.contains(&owner) {
        return Ok(owner);
    }
    successor(false).ok_or(StcamError::NoQuorum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_geo::BBox;

    fn plan_parts() -> (PartitionMap, HashSet<NodeId>) {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0));
        let workers: Vec<NodeId> = (1..=4).map(NodeId).collect();
        let partition = PartitionMap::uniform(extent, 100.0, workers.clone());
        (partition, workers.into_iter().collect())
    }

    fn test_plane(pool_size: usize) -> QueryPlane {
        let fabric = stcam_net::Fabric::new(stcam_net::LinkModel::instant());
        let (partition, alive) = plan_parts();
        let pool: Vec<Executor> = (0..pool_size)
            .map(|k| {
                Executor::new(
                    fabric.register(NodeId(20_000 + k as u32)),
                    crate::exec::OpPolicy::new(std::time::Duration::from_millis(50)),
                )
            })
            .collect();
        QueryPlane::new(pool, partition, alive)
    }

    #[test]
    fn publish_bumps_epoch_and_readers_see_the_new_plan() {
        let plane = test_plane(2);
        assert_eq!(plane.epoch(), 1);
        let old = plane.plan();
        let (partition, mut alive) = plan_parts();
        alive.remove(&NodeId(3));
        assert_eq!(plane.publish_at(2, partition, alive), 2);
        assert_eq!(plane.epoch(), 2);
        // The old snapshot is unaffected; the new one reflects the edit.
        assert!(old.alive.contains(&NodeId(3)));
        assert!(!plane.plan().alive.contains(&NodeId(3)));
    }

    #[test]
    fn concurrent_readers_and_publisher_never_tear_a_plan() {
        let plane = std::sync::Arc::new(test_plane(4));
        std::thread::scope(|scope| {
            let publisher = {
                let plane = std::sync::Arc::clone(&plane);
                scope.spawn(move || {
                    for round in 0..200u32 {
                        let (partition, mut alive) = plan_parts();
                        // Each published plan removes exactly one worker,
                        // a recognisable invariant for the readers.
                        alive.remove(&NodeId(1 + round % 4));
                        plane.publish_at(u64::from(round) + 2, partition, alive);
                    }
                })
            };
            for _ in 0..4 {
                let plane = std::sync::Arc::clone(&plane);
                scope.spawn(move || {
                    let mut last_epoch = 0;
                    for _ in 0..500 {
                        let plan = plane.plan();
                        assert!(plan.epoch >= last_epoch, "epoch went backwards");
                        last_epoch = plan.epoch;
                        // Invariant: either the initial full plan or one
                        // of the published 3-worker plans — never a mix.
                        assert!(matches!(plan.alive.len(), 3 | 4));
                    }
                });
            }
            publisher.join().unwrap();
        });
        assert_eq!(plane.epoch(), 201);
    }

    #[test]
    fn route_owner_prefers_healthy_successors() {
        let (partition, mut alive) = plan_parts();
        let peers = PeerTable::default();
        let owner = partition.owner_of(Point::new(800.0, 800.0));
        // Healthy owner routes to itself.
        assert_eq!(
            route_owner(owner, &partition, &alive, &peers).unwrap(),
            owner
        );
        // Dead owner diverts to an alive successor.
        alive.remove(&owner);
        let diverted = route_owner(owner, &partition, &alive, &peers).unwrap();
        assert_ne!(diverted, owner);
        assert!(alive.contains(&diverted));
        // No quorum at all.
        let nobody: HashSet<NodeId> = HashSet::new();
        assert!(matches!(
            route_owner(owner, &partition, &nobody, &peers),
            Err(StcamError::NoQuorum)
        ));
    }

    /// Books one call to `node` given up on.
    fn give_up(peers: &PeerTable, node: NodeId) {
        peers.record("knn_phase1", node, false, None);
    }

    #[test]
    fn route_owner_diverts_from_a_suspect_owner_to_the_first_healthy_successor() {
        let (partition, alive) = plan_parts();
        let peers = PeerTable::default();
        let owner = partition.owner_of(Point::new(800.0, 800.0));
        let ring = partition.successors(owner, 3);
        give_up(&peers, owner);
        assert_eq!(
            route_owner(owner, &partition, &alive, &peers).unwrap(),
            ring[0]
        );
        // A suspect first successor is passed over too.
        give_up(&peers, ring[0]);
        assert_eq!(
            route_owner(owner, &partition, &alive, &peers).unwrap(),
            ring[1]
        );
        // One answer clears the owner's streak, and it is its own anchor again.
        peers.record("knn_phase1", owner, true, None);
        assert_eq!(
            route_owner(owner, &partition, &alive, &peers).unwrap(),
            owner
        );
    }

    #[test]
    fn route_owner_keeps_an_alive_owner_when_everyone_is_suspect() {
        let (partition, mut alive) = plan_parts();
        let peers = PeerTable::default();
        let owner = partition.owner_of(Point::new(800.0, 800.0));
        for &worker in partition.workers() {
            give_up(&peers, worker);
        }
        assert_eq!(
            route_owner(owner, &partition, &alive, &peers).unwrap(),
            owner
        );
        // With the owner dead as well, the first alive successor anchors.
        let ring = partition.successors(owner, 3);
        alive.remove(&owner);
        alive.remove(&ring[0]);
        assert_eq!(
            route_owner(owner, &partition, &alive, &peers).unwrap(),
            ring[1]
        );
    }
}
