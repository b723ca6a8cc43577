//! The embeddable cluster facade.

use std::ops::DerefMut;
use std::time::Duration as StdDuration;

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use stcam_camnet::Observation;
use stcam_geo::{BBox, Duration, GridSpec, Point, TimeInterval, Timestamp};
use stcam_index::IndexConfig;
use stcam_net::{Fabric, FabricStats, LinkModel, NodeId};

use crate::continuous::Notification;
use crate::coordinator::{ClusterStats, Coordinator, ReconstructReport};
use crate::error::StcamError;
use crate::exec::{Degraded, HeatmapOp, RangeOp};
use crate::ingest::Ingestor;
use crate::partition::{PartitionMap, PartitionPolicy};
use crate::plane::{Knn, Query, QueryOpts, QueryPlane};
use crate::worker::{Worker, WorkerConfig, WorkerHandle};

/// Configuration of a whole cluster, with builder-style adjustment.
///
/// # Example
///
/// ```
/// use stcam::{ClusterConfig, PartitionPolicy};
/// use stcam_geo::{BBox, Point};
///
/// let extent = BBox::new(Point::new(0.0, 0.0), Point::new(4000.0, 4000.0));
/// let config = ClusterConfig::new(extent, 8)
///     .with_replication(2)
///     .with_partition_policy(PartitionPolicy::UniformHash);
/// assert_eq!(config.workers, 8);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Deployment extent.
    pub extent: BBox,
    /// Number of worker nodes.
    pub workers: usize,
    /// Replicas per shard (excluding the primary); 0 disables replication.
    pub replication: usize,
    /// Cell-to-worker assignment policy.
    pub partition_policy: PartitionPolicy,
    /// Macro (partitioning) cell size, metres.
    pub macro_cell_size: f64,
    /// Worker-local index cell size, metres.
    pub index_cell_size: f64,
    /// Worker-local index slice length.
    pub slice_len: Duration,
    /// Link model of the simulated network.
    pub link: LinkModel,
    /// RPC timeout for coordinator → worker calls.
    pub rpc_timeout: StdDuration,
    /// Per-macro-cell load estimates for
    /// [`PartitionPolicy::LoadAware`] (row-major over the macro grid).
    pub load_profile: Option<Vec<u64>>,
}

impl ClusterConfig {
    /// A sensible default deployment over `extent` with `workers` nodes:
    /// replication 1, uniform partitioning, macro cells 1/16 of the
    /// extent's width, index cells 1/80, 10-second slices, LAN links.
    ///
    /// # Panics
    ///
    /// Panics when `extent` is empty or `workers` is zero.
    pub fn new(extent: BBox, workers: usize) -> Self {
        assert!(!extent.is_empty(), "extent must be non-empty");
        assert!(workers > 0, "need at least one worker");
        let width = extent.width().max(extent.height());
        ClusterConfig {
            extent,
            workers,
            replication: 1,
            partition_policy: PartitionPolicy::UniformHash,
            macro_cell_size: width / 16.0,
            index_cell_size: width / 80.0,
            slice_len: Duration::from_secs(10),
            link: LinkModel::lan(),
            rpc_timeout: StdDuration::from_secs(5),
            load_profile: None,
        }
    }

    /// Replaces the replication factor.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Replaces the partition policy.
    pub fn with_partition_policy(mut self, policy: PartitionPolicy) -> Self {
        self.partition_policy = policy;
        self
    }

    /// Supplies the per-macro-cell load profile for load-aware
    /// partitioning.
    pub fn with_load_profile(mut self, loads: Vec<u64>) -> Self {
        self.load_profile = Some(loads);
        self
    }

    /// Replaces the link model.
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Replaces the macro cell size.
    pub fn with_macro_cell_size(mut self, size: f64) -> Self {
        self.macro_cell_size = size;
        self
    }

    /// Replaces the coordinator → worker RPC timeout. Chaos and failover
    /// tests lower this so dead-node sub-queries fail fast.
    pub fn with_rpc_timeout(mut self, timeout: StdDuration) -> Self {
        self.rpc_timeout = timeout;
        self
    }

    /// The macro grid this configuration induces (useful for building a
    /// load profile).
    pub fn macro_grid(&self) -> GridSpec {
        GridSpec::covering(self.extent, self.macro_cell_size)
    }
}

/// A running cluster: a fabric, `N` worker threads and a coordinator,
/// behind plain method calls.
///
/// All methods are `&self` (internally synchronised), so a `Cluster` can
/// be shared across client threads. Reads ([`query`](Self::query) and
/// its three strict shorthands, plus telemetry accessors) go straight to
/// the lock-free [`QueryPlane`], and writes ([`ingest`](Self::ingest),
/// [`flush`](Self::flush)) through the cluster's own [`Ingestor`]: neither
/// touches the coordinator mutex. Every ingestor hands the standing-query
/// matches of the groups it gets acknowledged to one channel, which
/// [`poll_notifications`](Self::poll_notifications) drains, also without
/// that mutex. Control actions (rebalance, recovery, registering standing
/// queries) serialise on the coordinator, reached through
/// [`coordinator`](Self::coordinator); tenant budgets go through
/// [`query_plane`](Self::query_plane)`().admission()`, and faults through
/// [`fabric`](Self::fabric).
#[derive(Debug)]
pub struct Cluster {
    fabric: Fabric,
    coordinator: std::sync::Arc<Mutex<Coordinator>>,
    plane: std::sync::Arc<QueryPlane>,
    /// Both ends of the notification channel: every ingestor gets a
    /// sender, [`poll_notifications`](Self::poll_notifications) drains.
    notify: (Sender<Notification>, Receiver<Notification>),
    /// The write path of [`ingest`](Self::ingest) and
    /// [`flush`](Self::flush): one more ingestor, first in its id range.
    writer: Ingestor,
    workers: Mutex<Option<Vec<WorkerHandle>>>,
    config: ClusterConfig,
    next_ingestor: std::sync::atomic::AtomicU32,
    monitor: Mutex<Option<MonitorHandle>>,
    retention: Mutex<Option<MonitorHandle>>,
}

/// A periodic background thread with interruptible sleep: the tick runs
/// once immediately on spawn, then every `interval`, and [`stop`]
/// (`Self::stop`) wakes the thread mid-wait instead of letting a long
/// interval delay shutdown.
#[derive(Debug)]
struct MonitorHandle {
    signal: std::sync::Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl MonitorHandle {
    fn spawn(name: &str, interval: StdDuration, mut tick: impl FnMut() + Send + 'static) -> Self {
        let signal = std::sync::Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let signal_thread = std::sync::Arc::clone(&signal);
        let join = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let (stopped, wake) = &*signal_thread;
                loop {
                    tick();
                    let deadline = std::time::Instant::now() + interval;
                    let mut stopped = stopped.lock().expect("monitor mutex poisoned");
                    // Deadline-based wait so spurious wakeups re-arm with
                    // the remaining time rather than a fresh interval.
                    loop {
                        if *stopped {
                            return;
                        }
                        let now = std::time::Instant::now();
                        if now >= deadline {
                            break;
                        }
                        stopped = wake
                            .wait_timeout(stopped, deadline - now)
                            .expect("monitor mutex poisoned")
                            .0;
                    }
                }
            })
            .expect("spawn cluster monitor");
        MonitorHandle {
            signal,
            join: Some(join),
        }
    }

    fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        let (stopped, wake) = &*self.signal;
        *stopped.lock().expect("monitor mutex poisoned") = true;
        wake.notify_all();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// A dropped handle must not leave its thread parked on the condvar
/// forever: dropping stops and joins, so teardown is deterministic even
/// when [`Cluster::shutdown`] is bypassed (panic unwind, leaked handle
/// replacement).
impl Drop for MonitorHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Fabric endpoints in the query plane's pool. Each concurrent read
/// borrows one round-robin; endpoints support concurrent calls, so this
/// bounds contention, not parallelism.
const QUERY_ENDPOINTS: u32 = 8;

/// Read-executor threads per worker.
const READ_THREADS: usize = 4;

impl Cluster {
    /// Boots a cluster per `config`.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (all setup is local); the
    /// `Result` reserves room for resource limits.
    pub fn launch(config: ClusterConfig) -> Result<Self, StcamError> {
        let fabric = Fabric::new(config.link);
        let worker_ids: Vec<NodeId> = (1..=config.workers as u32).map(NodeId).collect();
        let partition = PartitionMap::build(
            config.partition_policy,
            config.extent,
            config.macro_cell_size,
            worker_ids.clone(),
            config.load_profile.as_deref(),
        );
        let index_config =
            IndexConfig::new(config.extent, config.index_cell_size, config.slice_len);
        let mut handles = Vec::with_capacity(config.workers);
        for &id in &worker_ids {
            handles.push(Worker::spawn(
                fabric.register(id),
                WorkerConfig {
                    index: index_config.clone(),
                    read_threads: READ_THREADS,
                },
            ));
        }
        // Query-plane endpoints live in their own id range (20 000+),
        // clear of workers (1..), the coordinator (0) and ingestors
        // (10 000+).
        let query_endpoints = (0..QUERY_ENDPOINTS)
            .map(|k| fabric.register(NodeId(20_000 + k)))
            .collect();
        let coordinator = Coordinator::new(
            fabric.register(NodeId(0)),
            query_endpoints,
            partition,
            config.replication,
            config.rpc_timeout,
        );
        // Arm the workers' misroute check from the start, so stale
        // senders are NACKed (and self-heal) after the first recovery
        // or rebalance instead of silently feeding old owners.
        coordinator.broadcast_routes();
        let plane = coordinator.query_plane();
        let notify = crossbeam::channel::unbounded();
        let writer = Ingestor::new(
            fabric.register(NodeId(10_000)),
            std::sync::Arc::clone(&plane),
            config.replication,
            notify.0.clone(),
        );
        // Arm the admission gate's saturation threshold: one full
        // fan-out per query-plane endpoint.
        plane
            .admission()
            .set_saturation_width(config.workers * QUERY_ENDPOINTS as usize);
        Ok(Cluster {
            fabric,
            coordinator: std::sync::Arc::new(Mutex::new(coordinator)),
            plane,
            notify,
            writer,
            workers: Mutex::new(Some(handles)),
            config,
            next_ingestor: std::sync::atomic::AtomicU32::new(10_001),
            monitor: Mutex::new(None),
            retention: Mutex::new(None),
        })
    }

    /// The lock-free query plane. Clone the `Arc` to issue reads from
    /// many threads without any shared locking; the facade's own query
    /// methods use the same plane. It is also the door to the admission
    /// gate: `query_plane().admission()` registers tenant budgets and
    /// reports their usage.
    pub fn query_plane(&self) -> std::sync::Arc<QueryPlane> {
        std::sync::Arc::clone(&self.plane)
    }

    /// The control plane: a guard on the coordinator mutex, the one door
    /// to every control action — `cluster.coordinator().rebalance()`,
    /// `check_and_recover`, `repair`, `under_replicated_cells`,
    /// `register_continuous`, `evict_before`, `set_op_policy` (see
    /// [`Coordinator`]). Use the guard as a statement-long temporary.
    ///
    /// The recovery monitor, the retention sweeper,
    /// [`stats`](Self::stats) and
    /// [`restart_coordinator`](Self::restart_coordinator) take the same
    /// lock, so holding the guard across a call to any of them
    /// deadlocks. Reads, writes and
    /// [`poll_notifications`](Self::poll_notifications) never take it.
    pub fn coordinator(&self) -> impl DerefMut<Target = Coordinator> + '_ {
        self.coordinator.lock()
    }

    /// The configuration this cluster was launched with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Acknowledged ingest through the cluster's own [`Ingestor`]:
    /// routes observations to their owning workers and replicas under
    /// the published plan, returning the number durably accepted (see
    /// [`Ingestor::ingest`]). Never takes the coordinator lock, so writes
    /// proceed beside recovery ticks, rebalances and coordinator outages.
    ///
    /// # Errors
    ///
    /// See [`Ingestor::ingest`].
    pub fn ingest(&self, batch: Vec<Observation>) -> Result<usize, StcamError> {
        self.writer.ingest(batch)
    }

    /// Barrier: drains the parked window of [`ingest`](Self::ingest) and
    /// returns once all previously ingested traffic is indexed.
    ///
    /// # Errors
    ///
    /// See [`Ingestor::flush`].
    pub fn flush(&self) -> Result<(), StcamError> {
        self.writer.flush()
    }

    /// Creates a direct-ingest handle with its own fabric endpoint (see
    /// [`Ingestor`]); many may ingest concurrently. The handle reads the
    /// published plan at every call and re-routes on NACKs, so it
    /// survives recoveries and rebalances without being recreated.
    pub fn create_ingestor(&self) -> Ingestor {
        let id = NodeId(
            self.next_ingestor
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
        let (endpoint, notify) = (self.fabric.register(id), self.notify.0.clone());
        let plane = self.query_plane();
        Ingestor::new(endpoint, plane, self.config.replication, notify)
    }

    /// The one way to ask a read. `q` is a typed query value whose
    /// answer type is known statically — [`RangeOp`] (optionally
    /// class-filtered, limited, projected), [`Knn`], [`HeatmapOp`],
    /// [`TopCellsOp`](crate::TopCellsOp), or any other
    /// [`DistributedOp`](crate::DistributedOp) such as the
    /// [`KnnOp::broadcast`](crate::KnnOp::broadcast) baseline — and
    /// `opts` says how to treat lost shards and on whose account to run
    /// (see [`QueryPlane::query`]). Lock-free: never touches the
    /// coordinator mutex.
    ///
    /// In [`QueryMode::BestEffort`](crate::QueryMode::BestEffort) the
    /// answer's [`Completeness`](crate::Completeness) lists what is
    /// missing. A degraded range or heat-map is a subset of the true
    /// answer; a degraded kNN or top-cells ranking is not (`subset ==
    /// false`), since a lost shard can promote items the complete
    /// answer would have displaced.
    ///
    /// # Errors
    ///
    /// See [`QueryPlane::query`].
    pub fn query<Q: Query>(
        &self,
        q: Q,
        opts: &QueryOpts,
    ) -> Result<Degraded<Q::Output>, StcamError> {
        self.plane.query(q, opts)
    }

    /// Strict spatio-temporal range query: shorthand for
    /// [`query`](Self::query) of [`RangeOp::new`].
    ///
    /// # Errors
    ///
    /// [`StcamError::PartialFailure`] when any shard stays unanswered
    /// after replica failover.
    pub fn range_query(
        &self,
        region: BBox,
        window: TimeInterval,
    ) -> Result<Vec<Observation>, StcamError> {
        let d = self.query(RangeOp::new(region, window), &QueryOpts::STRICT)?;
        Ok(d.value)
    }

    /// Strict two-phase pruned k-nearest-neighbour query: shorthand for
    /// [`query`](Self::query) of [`Knn`].
    ///
    /// # Errors
    ///
    /// As [`range_query`](Self::range_query), plus
    /// [`StcamError::NoQuorum`] when no worker can anchor phase one.
    pub fn knn_query(
        &self,
        at: Point,
        window: TimeInterval,
        k: usize,
    ) -> Result<Vec<Observation>, StcamError> {
        let d = self.query(Knn { at, window, k }, &QueryOpts::STRICT)?;
        Ok(d.value)
    }

    /// Strict aggregate heat-map with worker-side partial aggregation:
    /// shorthand for [`query`](Self::query) of [`HeatmapOp`].
    ///
    /// # Errors
    ///
    /// As [`range_query`](Self::range_query).
    pub fn heatmap(
        &self,
        buckets: &GridSpec,
        window: TimeInterval,
    ) -> Result<Vec<u64>, StcamError> {
        let buckets = *buckets;
        let d = self.query(HeatmapOp { buckets, window }, &QueryOpts::STRICT)?;
        Ok(d.value)
    }

    /// Drains the standing-query notifications of acknowledged writes,
    /// from this cluster's [`ingest`](Self::ingest) and every
    /// [`Ingestor`] it created, waiting up to `timeout` for the first.
    /// Takes no coordinator lock, so control actions and ingest run while
    /// a client waits here. Kept on `Cluster` because the cluster owns
    /// the channel.
    pub fn poll_notifications(&self, timeout: StdDuration) -> Vec<Notification> {
        let inbox = &self.notify.1;
        let Ok(first) = inbox.recv_timeout(timeout) else {
            return Vec::new();
        };
        // Drain whatever else is already queued, then return.
        let queued = std::iter::from_fn(|| inbox.try_recv().ok());
        std::iter::once(first).chain(queued).collect()
    }

    /// Cluster-wide statistics: one `Stats` round trip per alive worker,
    /// no digest sweep. Executor telemetry is [`op_stats`](Self::op_stats).
    /// Shorthand for `coordinator().stats()`, kept because the `stbench`
    /// harness calls it.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::stats`].
    pub fn stats(&self) -> Result<ClusterStats, StcamError> {
        self.coordinator.lock().stats()
    }

    /// Simulated network traffic counters: shorthand for
    /// `fabric().stats()`, kept because the `stbench` harness reads it.
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric.stats()
    }

    /// Per-operation executor telemetry (sub-queries, retries, wire
    /// bytes, scatter/merge latency), sorted by operation name. One
    /// account across the control plane and every query-plane endpoint;
    /// reading it takes no cluster-wide lock.
    pub fn op_stats(&self) -> Vec<(&'static str, crate::exec::OpStats)> {
        self.plane.op_stats()
    }

    /// A snapshot of the partition map (from the current published
    /// query plan; lock-free).
    pub fn partition(&self) -> PartitionMap {
        self.plane.plan().partition.clone()
    }

    /// The simulated network every node of this cluster talks over, and
    /// the one way to inject faults into it: crash and restart workers
    /// ([`Fabric::crash`], [`Fabric::restart`]; pair with
    /// [`Coordinator::check_and_recover`]), split and heal the
    /// network ([`Fabric::partition`], [`Fabric::heal_partition`]), and
    /// drop frames on every link or on one
    /// ([`Fabric::set_drop_probability`],
    /// [`Fabric::set_link_drop_probability`]). Workers are nodes
    /// `1..=workers`.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Failure injection: crashes the *coordinator's* control-plane
    /// transport at the fabric level. Reads and acked writes keep going —
    /// the query plane's pooled endpoints and the ingestors are separate
    /// nodes and the last published plan stays valid — but recovery ticks
    /// and other control actions fail until
    /// [`restart_coordinator`](Self::restart_coordinator). Kept beside
    /// [`fabric`](Self::fabric) because the coordinator's node id is the
    /// cluster's own business.
    pub fn crash_coordinator(&self) {
        self.fabric.crash(NodeId(0));
    }

    /// Restarts the coordinator's transport and rebuilds the control
    /// plane from the surviving cluster: probe the full worker roster,
    /// census the responders, adopt a fenced epoch above everything they
    /// report, re-derive ownership/membership/standing queries from
    /// worker truth, and drive repair (see
    /// [`Coordinator::reconstruct`]). Nothing the pre-crash incarnation
    /// remembered is required. Kept on `Cluster` because it hides the
    /// coordinator's node id and the census candidates (the full worker
    /// roster); a transport restart alone would leave the control plane
    /// unrebuilt.
    ///
    /// # Errors
    ///
    /// [`StcamError::NoQuorum`] when no worker answers the probe; a worker
    /// failure when the fenced plan could not be published.
    pub fn restart_coordinator(&self) -> Result<ReconstructReport, StcamError> {
        self.fabric.restart(NodeId(0));
        let candidates: Vec<NodeId> = (1..=self.config.workers as u32).map(NodeId).collect();
        self.coordinator.lock().reconstruct(&candidates)
    }

    /// Per-node failure streaks from the shared
    /// [`PeerTable`](stcam_net::PeerTable) (calls given up on since the
    /// node's last answer), sorted by node id. Takes no coordinator lock.
    /// Kept on `Cluster` because there is no public door to the peer
    /// table.
    pub fn suspicions(&self) -> Vec<(NodeId, u32)> {
        self.plane.peers().snapshot()
    }

    /// Starts a background liveness monitor that runs
    /// [`Coordinator::check_and_recover`] once immediately and then every
    /// `interval` until shutdown; stopping interrupts the wait, so a long
    /// interval never delays [`shutdown`](Self::shutdown). Calling it
    /// again replaces the previous monitor. Kept on `Cluster` because the
    /// cluster owns the thread; each tick takes the coordinator lock.
    pub fn enable_auto_recovery(&self, interval: StdDuration) {
        let coordinator = std::sync::Arc::clone(&self.coordinator);
        let handle = MonitorHandle::spawn("stcam-recovery-monitor", interval, move || {
            let _ = coordinator.lock().check_and_recover();
        });
        if let Some(prev) = self.monitor.lock().replace(handle) {
            prev.stop();
        }
    }

    /// Starts a background retention sweeper: once immediately and then
    /// every `interval` it reads the newest stored timestamp from the
    /// workers' stats (no digest sweep) and evicts everything older than
    /// `horizon` before it; the wait is interruptible like the recovery
    /// monitor's. Calling it again replaces the previous sweeper. Kept on
    /// `Cluster` because the cluster owns the thread; each tick takes the
    /// coordinator lock.
    pub fn enable_retention(&self, horizon: Duration, interval: StdDuration) {
        let coordinator = std::sync::Arc::clone(&self.coordinator);
        let handle = MonitorHandle::spawn("stcam-retention-sweeper", interval, move || {
            let coordinator = coordinator.lock();
            let Ok(stats) = coordinator.stats() else {
                return;
            };
            let newest = stats.workers.iter().filter_map(|(_, s)| s.newest_ms).max();
            if let Some(newest_ms) = newest {
                let cutoff = Timestamp::from_millis(newest_ms).saturating_sub(horizon);
                let _ = coordinator.evict_before(cutoff);
            }
        });
        if let Some(prev) = self.retention.lock().replace(handle) {
            prev.stop();
        }
    }

    /// Failure injection: replaces the fabric-wide message drop
    /// probability at runtime (`0.0` restores a reliable network). The
    /// acked ingest path retransmits through the loss. Shorthand for
    /// `fabric().set_drop_probability(p)`, kept because the `stbench`
    /// harness calls it.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0.0, 1.0]`.
    pub fn set_drop_probability(&self, p: f64) {
        self.fabric.set_drop_probability(p);
    }

    /// Stops all worker threads. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        for slot in [&self.monitor, &self.retention] {
            if let Some(monitor) = slot.lock().take() {
                monitor.stop();
            }
        }
        if let Some(handles) = self.workers.lock().take() {
            for handle in handles {
                handle.shutdown();
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_obs as obs;
    use stcam_index::Predicate;

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0))
    }

    fn test_config(workers: usize) -> ClusterConfig {
        ClusterConfig::new(extent(), workers).with_link(LinkModel::instant())
    }

    fn window_all() -> TimeInterval {
        TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10_000))
    }

    /// Times the executor has run operation `name` on this cluster.
    fn invocations(cluster: &Cluster, name: &str) -> u64 {
        let stats = cluster.op_stats().into_iter();
        stats
            .filter(|&(op, _)| op == name)
            .map(|(_, s)| s.invocations)
            .sum()
    }

    #[test]
    fn ingest_flush_query_round_trip() {
        let cluster = Cluster::launch(test_config(4)).unwrap();
        let batch: Vec<Observation> = (0..200)
            .map(|i| {
                obs(
                    i,
                    i * 100,
                    (i as f64 * 37.0) % 1600.0,
                    (i as f64 * 53.0) % 1600.0,
                )
            })
            .collect();
        cluster.ingest(batch.clone()).unwrap();
        cluster.flush().unwrap();
        let all = cluster.range_query(extent(), window_all()).unwrap();
        assert_eq!(all.len(), 200);
        // Data is actually distributed.
        let stats = cluster.stats().unwrap();
        let populated = stats
            .workers
            .iter()
            .filter(|(_, s)| s.primary_observations > 0)
            .count();
        assert!(populated >= 3, "only {populated} workers hold data");
        cluster.shutdown();
    }

    #[test]
    fn knn_agrees_with_broadcast() {
        let cluster = Cluster::launch(test_config(4)).unwrap();
        let batch: Vec<Observation> = (0..300)
            .map(|i| obs(i, 0, (i as f64 * 41.0) % 1600.0, (i as f64 * 29.0) % 1600.0))
            .collect();
        cluster.ingest(batch).unwrap();
        cluster.flush().unwrap();
        for (x, y, k) in [(800.0, 800.0, 10), (10.0, 10.0, 5), (1590.0, 900.0, 25)] {
            let at = Point::new(x, y);
            let fast = cluster.knn_query(at, window_all(), k).unwrap();
            let slow = cluster
                .query(
                    crate::exec::KnnOp::broadcast(at, window_all(), k),
                    &QueryOpts::STRICT,
                )
                .unwrap()
                .value;
            let fast_ids: Vec<_> = fast.iter().map(|o| o.id).collect();
            let slow_ids: Vec<_> = slow.iter().map(|o| o.id).collect();
            assert_eq!(fast_ids, slow_ids, "knn mismatch at {at} k={k}");
        }
        cluster.shutdown();
    }

    #[test]
    fn continuous_query_end_to_end() {
        let cluster = Cluster::launch(test_config(4)).unwrap();
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0));
        let id = cluster
            .coordinator()
            .register_continuous(Predicate::new(region))
            .unwrap();
        cluster
            .ingest(vec![obs(0, 0, 100.0, 100.0), obs(1, 0, 1000.0, 1000.0)])
            .unwrap();
        let notifications = cluster.poll_notifications(StdDuration::from_secs(5));
        let matches: usize = notifications
            .iter()
            .filter(|n| n.query == id)
            .map(|n| n.matches.len())
            .sum();
        assert_eq!(matches, 1);
        cluster.coordinator().unregister_continuous(id).unwrap();
        cluster.ingest(vec![obs(2, 0, 100.0, 100.0)]).unwrap();
        assert!(cluster
            .poll_notifications(StdDuration::from_millis(100))
            .is_empty());
        cluster.shutdown();
    }

    #[test]
    fn failover_preserves_data_with_replication() {
        let cluster = Cluster::launch(test_config(4).with_replication(1)).unwrap();
        let batch: Vec<Observation> = (0..500)
            .map(|i| obs(i, 0, (i as f64 * 11.0) % 1600.0, (i as f64 * 17.0) % 1600.0))
            .collect();
        cluster.ingest(batch).unwrap();
        cluster.flush().unwrap();
        let before = cluster.range_query(extent(), window_all()).unwrap().len();
        assert_eq!(before, 500);
        // Kill a worker holding data, recover, recount.
        cluster.fabric().crash(NodeId(2));
        let failed = cluster.coordinator().check_and_recover();
        assert_eq!(failed, vec![NodeId(2)]);
        let after = cluster.range_query(extent(), window_all()).unwrap().len();
        assert_eq!(
            after,
            500,
            "lost {} observations despite replication",
            500 - after
        );
        cluster.shutdown();
    }

    #[test]
    fn failover_without_replication_loses_only_dead_shard() {
        let cluster = Cluster::launch(test_config(4).with_replication(0)).unwrap();
        let batch: Vec<Observation> = (0..400)
            .map(|i| obs(i, 0, (i as f64 * 19.0) % 1600.0, (i as f64 * 23.0) % 1600.0))
            .collect();
        cluster.ingest(batch).unwrap();
        cluster.flush().unwrap();
        let stats = cluster.stats().unwrap();
        let dead_share = stats
            .workers
            .iter()
            .find(|(w, _)| *w == NodeId(3))
            .map(|(_, s)| s.primary_observations)
            .unwrap();
        cluster.fabric().crash(NodeId(3));
        cluster.coordinator().check_and_recover();
        let after = cluster.range_query(extent(), window_all()).unwrap().len();
        assert_eq!(after as u64, 400 - dead_share);
        // Ingest keeps working: the dead worker's cells have a new owner.
        cluster.ingest(vec![obs(9_999, 0, 800.0, 800.0)]).unwrap();
        cluster.flush().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn failover_then_repair_restores_replica_coverage() {
        let cluster = Cluster::launch(test_config(4).with_replication(1)).unwrap();
        let batch: Vec<Observation> = (0..300)
            .map(|i| obs(i, 0, (i as f64 * 31.0) % 1600.0, (i as f64 * 43.0) % 1600.0))
            .collect();
        cluster.ingest(batch).unwrap();
        cluster.flush().unwrap();
        cluster.fabric().crash(NodeId(1));
        cluster.coordinator().check_and_recover();
        // The recovery tick already ran a repair pass: every surviving
        // cell must again have its full complement of replica copies.
        assert_eq!(cluster.coordinator().under_replicated_cells(), 0);
        // And a second pass is a no-op.
        let report = cluster.coordinator().repair();
        assert_eq!(report.rounds, 0);
        assert_eq!(report.under_replicated_before, 0);
        cluster.shutdown();
    }

    #[test]
    fn restarted_worker_rejoins_and_serves_strict_reads() {
        let cluster = Cluster::launch(test_config(4).with_replication(1)).unwrap();
        let batch: Vec<Observation> = (0..400)
            .map(|i| obs(i, 0, (i as f64 * 11.0) % 1600.0, (i as f64 * 17.0) % 1600.0))
            .collect();
        cluster.ingest(batch).unwrap();
        cluster.flush().unwrap();
        cluster.fabric().crash(NodeId(2));
        assert_eq!(cluster.coordinator().check_and_recover(), vec![NodeId(2)]);
        // More data lands while the worker is out.
        cluster.ingest(vec![obs(9_000, 0, 800.0, 800.0)]).unwrap();
        cluster.flush().unwrap();
        // Restart: the next tick re-detects it, bulk-syncs its shard, and
        // re-enters it into the ring.
        cluster.fabric().restart(NodeId(2));
        assert!(cluster.coordinator().check_and_recover().is_empty());
        let partition = cluster.partition();
        assert!(
            !partition.cells_of(NodeId(2)).is_empty(),
            "rejoined worker owns no cells"
        );
        // The rejoined worker answers stats (it is alive) and holds its
        // shard's data again.
        let stats = cluster.stats().unwrap();
        let rejoined = stats
            .workers
            .iter()
            .find(|(w, _)| *w == NodeId(2))
            .map(|(_, s)| s.primary_observations)
            .expect("rejoined worker missing from stats");
        assert!(rejoined > 0, "rejoined worker holds no data");
        assert_eq!(cluster.coordinator().under_replicated_cells(), 0);
        // Strict reads see the complete data set under the new plan.
        let all = cluster.range_query(extent(), window_all()).unwrap();
        assert_eq!(all.len(), 401);
        cluster.shutdown();
    }

    #[test]
    fn rebalance_under_replication_preserves_data_and_coverage() {
        let cluster = Cluster::launch(test_config(4).with_replication(1)).unwrap();
        // Skewed load: everything in one corner, so the uniform map is
        // badly imbalanced and the rebalance has real moves to make.
        let batch: Vec<Observation> = (0..500)
            .map(|i| obs(i, 0, (i as f64 * 3.0) % 400.0, (i as f64 * 5.0) % 400.0))
            .collect();
        cluster.ingest(batch).unwrap();
        cluster.flush().unwrap();
        let report = cluster
            .coordinator()
            .rebalance()
            .expect("rebalance with replication");
        assert!(report.cells_moved > 0, "skewed load moved nothing");
        assert!(report.imbalance_after <= report.imbalance_before);
        // No observation was lost by the copy-then-cutover migration, and
        // the moved cells' replica chains are full again.
        let all = cluster.range_query(extent(), window_all()).unwrap();
        assert_eq!(all.len(), 500);
        assert_eq!(cluster.coordinator().under_replicated_cells(), 0);
        cluster.shutdown();
    }

    #[test]
    fn single_worker_cluster_works() {
        let cluster = Cluster::launch(test_config(1)).unwrap();
        cluster.ingest(vec![obs(0, 0, 800.0, 800.0)]).unwrap();
        cluster.flush().unwrap();
        assert_eq!(
            cluster.range_query(extent(), window_all()).unwrap().len(),
            1
        );
        cluster.shutdown();
    }

    #[test]
    fn a_waiting_poll_does_not_stall_ingest_or_recovery() {
        let cluster = Cluster::launch(test_config(4)).unwrap();
        // A standing query that matches nothing: the poll waits it out.
        let nowhere = BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let predicate = Predicate::new(nowhere);
        cluster
            .coordinator()
            .register_continuous(predicate)
            .unwrap();
        std::thread::scope(|scope| {
            let poll = scope.spawn(|| cluster.poll_notifications(StdDuration::from_secs(2)));
            std::thread::sleep(StdDuration::from_millis(50));
            let started = std::time::Instant::now();
            cluster.ingest(vec![obs(0, 0, 800.0, 800.0)]).unwrap();
            assert!(cluster.coordinator().check_and_recover().is_empty());
            let took = started.elapsed();
            assert!(
                took < StdDuration::from_millis(500),
                "ingest and recovery waited {took:?} behind a poll"
            );
            assert!(poll.join().unwrap().is_empty());
        });
        cluster.shutdown();
    }

    #[test]
    fn a_retention_tick_sweeps_no_digests() {
        let cluster = Cluster::launch(test_config(4).with_replication(1)).unwrap();
        let batch: Vec<Observation> = (0..100)
            .map(|i| obs(i, i * 1_000, (i as f64 * 37.0) % 1600.0, 800.0))
            .collect();
        cluster.ingest(batch).unwrap();
        cluster.flush().unwrap();
        // The first tick runs at once; its eviction ends it.
        cluster.enable_retention(Duration::from_secs(50), StdDuration::from_secs(60));
        let deadline = std::time::Instant::now() + StdDuration::from_secs(5);
        while invocations(&cluster, "evict") == 0 {
            assert!(std::time::Instant::now() < deadline, "no retention tick");
            std::thread::sleep(StdDuration::from_millis(10));
        }
        assert_eq!(invocations(&cluster, "cell_digest"), 0);
        cluster.shutdown();
    }

    #[test]
    fn a_stats_call_sweeps_no_digests() {
        let cluster = Cluster::launch(test_config(4).with_replication(1)).unwrap();
        cluster.ingest(vec![obs(0, 0, 800.0, 800.0)]).unwrap();
        let before = invocations(&cluster, "cell_digest");
        let stats = cluster.stats().unwrap();
        assert_eq!(stats.total_primary(), 1);
        assert_eq!(invocations(&cluster, "cell_digest"), before);
        cluster.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let cluster = Cluster::launch(test_config(2)).unwrap();
        cluster.shutdown();
        cluster.shutdown();
    }
}
