//! `stcam` — a distributed framework for spatio-temporal analysis on
//! large-scale camera networks.
//!
//! This crate is the system's core: it shards the observation stream of a
//! metropolitan camera network across a cluster of worker nodes by space,
//! executes spatio-temporal queries by scatter/gather over the shards, and
//! layers trajectory analysis (cross-camera track stitching) and standing
//! continuous queries on top.
//!
//! # Architecture
//!
//! ```text
//!  cameras ──observations──▶ Coordinator ──route by cell──▶ Worker 1..N
//!                               │   ▲                        │ StIndex
//!      range / kNN / heatmap ───┘   └──── partial results ───┘ replicas
//! ```
//!
//! * [`PartitionMap`] — space is cut into macro-cells on a Z-order curve;
//!   contiguous curve runs are assigned to workers (uniform) or packed by
//!   measured load (load-aware).
//! * [`Worker`] — owns the `stcam-index` shard for its cells, serves
//!   every request through one `match` (with per-op serve counters), and
//!   matches the rows it owns against its standing queries at ingest,
//!   returning the matches in the `IngestSeq` reply that acks them (the
//!   writer hands them on once the group is acked). Rows enter its
//!   primary shard through `IngestSeq` (clients) or `InstallSegments`
//!   (control plane), a `ReplicaLog` per backed-up primary through
//!   `ReplicateSeq` or `Repair`, and nothing else; replication is the
//!   sender's job. One function evaluates a read, over shard or log.
//! * [`exec`] — the typed scatter/gather layer. The [`exec::Executor`]
//!   holds one scatter loop: start every target's exchange, wait in
//!   target order, probe what is overdue by the measured round trip
//!   and give up by the per-operation [`OpPolicy`] (every request is
//!   safe to apply twice), book per-operation telemetry ([`OpStats`]: sub-queries, retries,
//!   wire bytes, scatter/merge latency split). A read is a
//!   [`exec::DistributedOp`] (targets / request / decode / merge) and
//!   may fail over to replicas; a control message is a named [`Request`]
//!   handed to [`exec::Executor::ask`].
//! * [`Coordinator`] — the mutex-guarded **control plane**: keeps
//!   membership and the standing-query registry, which each cutover
//!   registers at the new owners before it publishes. Every
//!   membership or partition change sets a desired state and runs one
//!   control loop — digest sweep, pure diff, then ship, cover, drain,
//!   truncate, promote — whose cutover *publishes* an immutable,
//!   epoch-tagged [`QueryPlan`] snapshot to the query plane.
//! * [`QueryPlane`] — the lock-free **read path**: one entry,
//!   [`QueryPlane::query`], runs a typed [`Query`] value ([`RangeOp`],
//!   [`Knn`] — two [`KnnOp`]s, the owner's answer bounding the rest —
//!   [`HeatmapOp`], [`TopCellsOp`], or any other [`ReadOp`]) against the
//!   current published plan, on a pool of fabric endpoints picked
//!   round-robin — N client threads scatter/gather concurrently with
//!   zero shared locking. [`QueryOpts`] carries the [`QueryMode`] and
//!   the optional tenant context: `Strict` fails on any lost
//!   shard with [`StcamError::PartialFailure`]; `BestEffort` returns a
//!   [`Degraded`] value whose [`Completeness`] accounts for shards
//!   answered, replicas used, and shards missing. Either way the
//!   executor first tries replica failover — re-issuing a dead shard's
//!   sub-query to its ring successors — unsuspected first, per the
//!   failure streaks the transport's [`stcam_net::PeerTable`] books at
//!   the end of every call, beside its round-trip estimates.
//! * [`stitch`] — converts per-camera observations into tracklets and
//!   associates them across adjacent cameras using appearance distance
//!   gated by learned transition-time windows.
//! * [`Cluster`] — the embeddable facade: spins up a fabric, N worker
//!   threads and a coordinator, and exposes the whole system behind plain
//!   method calls.
//!
//! # Example
//!
//! ```
//! use stcam::{Cluster, ClusterConfig};
//! use stcam_geo::{BBox, Point, TimeInterval, Timestamp};
//!
//! let extent = BBox::new(Point::new(0.0, 0.0), Point::new(2000.0, 2000.0));
//! let cluster = Cluster::launch(ClusterConfig::new(extent, 4))?;
//! // No data ingested yet: queries come back empty.
//! let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(60));
//! let hits = cluster.range_query(BBox::around(Point::new(1000.0, 1000.0), 200.0), window)?;
//! assert!(hits.is_empty());
//! cluster.shutdown();
//! # Ok::<(), stcam::StcamError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
mod baseline;
mod cluster;
mod continuous;
mod coordinator;
mod error;
pub mod exec;
mod ingest;
mod latency;
pub mod paging;
mod partition;
pub(crate) mod plane;
mod protocol;
mod reconcile;
pub mod repair;
mod replica;
pub mod snapshot;
pub mod stitch;
mod worker;

pub use admission::{
    AdmissionControl, AdmissionTicket, Deadline, Priority, QueryCtx, ShedReason, TenantBudget,
    TenantId, TenantUsage,
};
pub use baseline::CentralizedStore;
pub use cluster::{Cluster, ClusterConfig};
pub use continuous::{ContinuousQueryId, InterestIndex, Notification, Predicate};
pub use coordinator::{ClusterStats, Coordinator, RebalanceReport, ReconstructReport};
pub use error::StcamError;
pub use exec::{
    Completeness, Degraded, DistributedOp, Executor, HeatmapOp, KnnOp, OpPolicy, OpStats,
    QueryMode, RangeOp, ReadOp, TopCellsOp,
};
pub use ingest::Ingestor;
pub use partition::{PartitionMap, PartitionPolicy};
pub use plane::{Knn, Query, QueryOpts, QueryPlan, QueryPlane, Scatter};
pub use protocol::{
    CensusRegistration, CensusReport, DigestEntry, DigestReport, ReplicaDigestEntry, Request,
    Response, WorkerStatsMsg, PROJ_FULL, PROJ_THIN,
};
pub use repair::RepairReport;
pub use worker::{Worker, WorkerConfig, WorkerHandle, STALE_EPOCH_ERROR};
