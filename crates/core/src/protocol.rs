//! The coordinator ↔ worker wire protocol.
//!
//! Every message is a [`Request`] or [`Response`] encoded with
//! `stcam-codec`, and every message is stated once: a `wire_enum!` /
//! `wire_struct!` declaration gives a variant its tag byte, its operation
//! name and its fields, and from that one statement come the type, its
//! `encode`, `decode` and `size_hint`, the tag table (`VARIANTS`,
//! `RETIRED`) and `op_name`. Tags are explicit single bytes so the format
//! is stable and the communication-cost experiment's byte counts are
//! meaningful. To add a message, declare it here and handle it in the
//! worker; `tests/golden/frames.txt` pins the bytes of the ones that exist.

use bytes::{Buf, BufMut};
use stcam_camnet::{Observation, ObservationBatch, ObservationId};
use stcam_codec::{wire_enum, wire_struct, Bytes, DecodeError, SegmentFrame, Wire, WireAs};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_index::Predicate;
use stcam_net::NodeId;
use stcam_world::EntityClass;

use crate::continuous::{ContinuousQueryId, Notification};

/// Field layout: a [`NodeId`] or [`ContinuousQueryId`], or a list of node
/// ids, travels as its bare integer.
pub(crate) struct Bare;

macro_rules! bare_id {
    ($($id:ident($int:ty)),*) => {$(
        impl WireAs<$id> for Bare {
            fn encode<B: BufMut>(id: &$id, buf: &mut B) {
                id.0.encode(buf);
            }
            fn decode<B: Buf>(buf: &mut B) -> Result<$id, DecodeError> {
                <$int>::decode(buf).map($id)
            }
            fn size_hint(id: &$id) -> usize {
                id.0.size_hint()
            }
        }
    )*};
}

bare_id!(NodeId(u32), ContinuousQueryId(u64));

impl WireAs<Vec<NodeId>> for Bare {
    fn encode<B: BufMut>(ids: &Vec<NodeId>, buf: &mut B) {
        ids.len().encode(buf);
        for id in ids {
            id.0.encode(buf);
        }
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Vec<NodeId>, DecodeError> {
        Ok(Vec::<u32>::decode(buf)?.into_iter().map(NodeId).collect())
    }
    fn size_hint(ids: &Vec<NodeId>) -> usize {
        ids.len().size_hint() + ids.iter().map(|id| id.0.size_hint()).sum::<usize>()
    }
}

/// The tag of [`Request::ReplicaRead`], which its `inner` may not carry.
const REPLICA_READ: u8 = 16;

/// Field layout of [`Request::ReplicaRead`]'s `inner`: any request but
/// another `ReplicaRead`.
struct Unnested;

impl WireAs<Box<Request>> for Unnested {
    fn encode<B: BufMut>(inner: &Box<Request>, buf: &mut B) {
        inner.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Box<Request>, DecodeError> {
        let tag = u8::decode(buf)?;
        // Reject nesting *before* recursing: the decoder depth on hostile
        // input stays bounded at two.
        if tag == REPLICA_READ {
            return Err(DecodeError::InvalidValue {
                reason: "nested replica read",
            });
        }
        Request::decode_tagged(tag, buf).map(Box::new)
    }
    fn size_hint(inner: &Box<Request>) -> usize {
        inner.size_hint()
    }
}

/// [`Request::Range`] projection: ship full rows.
pub const PROJ_FULL: u8 = 0;
/// [`Request::Range`] projection: blank the appearance-signature and
/// ground-truth columns — position, time, camera, class, and id survive.
/// The batch codec then elides the signature column from the frame, which
/// is most of a row's bytes.
pub const PROJ_THIN: u8 = 1;

wire_enum! {
    /// A request sent to a worker.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        // `Ingest`, `Replicate`, `SnapshotReplica`, `Adopt`, `ExtractRegion`,
        // `TopCells`, `Repair` and `SegmentDigest`.
        retired [1, 2, 8, 9, 13, 15, 21, 23];
        /// Liveness probe.
        Ping = 0 "ping",
        /// Acknowledged ingest — the one door clients write a primary
        /// shard through, answered with [`Response::Ack`] or
        /// [`Response::Ingested`].
        ///
        /// A copy of the request is never applied twice while the
        /// transport remembers the answer (`stcam_net`'s reply table), and
        /// past that the worker's id filter drops rows it already holds.
        /// `epoch` is the routing-plan epoch the sender routed under; a
        /// worker whose own plan disagrees about ownership names the
        /// misrouted observations in its answer. The worker does **not**
        /// replicate onward: the sender's `ReplicateSeq` copies, sent in
        /// the same scatter, let an ack certify durability.
        IngestSeq = 17 "ingest_seq" {
            /// The routing-plan epoch the sender routed this batch under.
            epoch: u64,
            /// The observations, all believed owned by the addressee.
            batch: Vec<Observation> as ObservationBatch,
        },
        /// Acknowledged replica write, sent by the *ingesting* endpoint
        /// to each ring successor of `primary` beside its `IngestSeq`, and
        /// answered with [`Response::Ack`]. Applied at most once like
        /// `IngestSeq`; refused whole by the epoch fence of a holder whose
        /// installed route is newer than `epoch`.
        ReplicateSeq = 18 "replicate_seq" {
            /// The worker whose shard these observations belong to.
            primary: NodeId as Bare,
            /// The routing-plan epoch the sender routed this batch under.
            epoch: u64,
            /// The replicated observations.
            batch: Vec<Observation> as ObservationBatch,
        },
        /// Installs the addressee's slice of the routing plan: the set of
        /// grid cells it owns as of `epoch`. Workers use it to detect
        /// misrouted `IngestSeq` batches from stale senders; updates with an
        /// epoch older than the installed one are ignored.
        RouteUpdate = 19 "route_update" {
            /// The routing-plan epoch this cell set belongs to.
            epoch: u64,
            /// The macro grid the cell indices refer to.
            grid: GridSpec,
            /// Owned cells, packed as `row * grid_cols + col`.
            cells: Vec<u32>,
        },
        /// Return observations in `region` × `window` from the local shard.
        Range = 3 "range" {
            /// Spatial predicate.
            region: BBox,
            /// Temporal predicate.
            window: TimeInterval,
            /// Per-shard result cutoff: when non-zero, the worker ships at
            /// most `limit` rows — the lowest observation ids first, so the
            /// client's merge-and-truncate over all shards is exact. `0`
            /// means unlimited.
            limit: u32,
            /// Column projection ([`PROJ_FULL`] or [`PROJ_THIN`]): with
            /// `PROJ_THIN` the worker blanks the appearance signature and
            /// ground-truth columns before encoding, and the batch codec
            /// elides the 64-byte signature column from the wire frame.
            projection: u8 where (projection <= PROJ_THIN) else "unknown projection",
        },
        /// Return the local k nearest observations to `at` within `window`,
        /// optionally only those within `max_distance` of `at`.
        Knn = 4 "knn" {
            /// Query point.
            at: Point,
            /// Temporal predicate.
            window: TimeInterval,
            /// Result size bound.
            k: u32,
            /// Prune radius from a previous phase, if any.
            max_distance: Option<f64>,
        },
        /// Return the *non-zero* per-bucket counts over the local shard, as
        /// sparse `(bucket index, count)` pairs ([`Response::CellCounts`]):
        /// the wire cost is proportional to occupied cells, not grid size.
        /// Heat-maps sum them; the "hot cell" ranking keeps the densest `k`.
        Heatmap = 5 "heatmap" {
            /// Aggregation buckets.
            buckets: GridSpec,
            /// Temporal predicate.
            window: TimeInterval,
        },
        /// Register a standing query; its matches ride `IngestSeq` replies.
        RegisterContinuous = 6 "register_continuous" {
            /// Query id (cluster-unique).
            id: ContinuousQueryId as Bare,
            /// Match predicate.
            predicate: Predicate,
        },
        /// Remove a standing query.
        UnregisterContinuous = 7 "unregister_continuous" (id: ContinuousQueryId as Bare),
        /// Report local statistics.
        Stats = 10 "stats",
        /// Drop observations older than the timestamp (retention sweep).
        /// Carries the issuing coordinator's routing-plan epoch so a worker
        /// can fence sweeps from a stale control plane.
        EvictBefore = 11 "evict_before" {
            /// Evict observations strictly older than this timestamp.
            cutoff: Timestamp,
            /// The issuer's routing-plan epoch; workers reject the sweep when
            /// it is below their installed route epoch.
            epoch: u64,
        },
        /// Failover: absorb the local replica log held for `failed` into the
        /// primary shard (the anti-entropy pass that follows every promotion
        /// restores the replica copies). The reply is `Ack`.
        Promote = 12 "promote" {
            /// The failed worker being taken over.
            failed: NodeId as Bare,
            /// The issuer's routing-plan epoch; workers reject the promotion
            /// when it is below their installed route epoch (split-brain
            /// fencing — a stale coordinator must not trigger failover).
            epoch: u64,
        },
        /// Control-plane census: report this worker's installed route epoch,
        /// owned primary cells, held replica-log keys, and locally-installed
        /// standing registrations ([`Response::Census`]). A restarting
        /// coordinator reconstructs its entire control state — partition map,
        /// roster, epoch, and continuous-query table — from these reports;
        /// workers are the ground truth, the coordinator only a cache.
        Census = 27 "census",
        /// As `Range` with an entity-class filter, tested inside the
        /// worker's scan — predicate pushdown for typed queries.
        RangeFiltered = 14 "range_filtered" {
            /// Spatial predicate.
            region: BBox,
            /// Temporal predicate.
            window: TimeInterval,
            /// Required class.
            class: EntityClass,
            /// Per-shard result cutoff, as in [`Request::Range`].
            limit: u32,
            /// Column projection, as in [`Request::Range`].
            projection: u8 where (projection <= PROJ_THIN) else "unknown projection",
        },
        /// Answer `inner` from the replica log this worker holds for primary
        /// `of`, instead of from the local primary shard. This is the
        /// replica-failover read path: when a shard's primary is unreachable,
        /// the executor re-issues the shard's sub-query to a ring successor
        /// wrapped in this envelope. Only read requests are replica-readable;
        /// anything else (including a nested `ReplicaRead`) is answered with
        /// an application error.
        ReplicaRead = REPLICA_READ "replica_read" {
            /// The unreachable primary whose replicated shard is queried.
            of: NodeId as Bare,
            /// The read to evaluate against that replica log.
            inner: Box<Request> as Unnested,
        },
        /// Anti-entropy digest request: report, per macro cell of `grid`, the
        /// observation count and an order-independent checksum — once over
        /// the local primary shard, and once per replica log held for other
        /// primaries. The control loop compares primary and replica digests
        /// to find under-replicated or diverged cells without moving any
        /// observation data.
        CellDigest = 20 "cell_digest" {
            /// The macro grid cells are reported against (packed
            /// `row * cols + col`, positions bucketed by `cell_of_clamped`).
            grid: GridSpec,
        },
        /// Readmission handshake for a restarted worker: drop *all* local
        /// state (primary index, replica logs, dedup memories, standing
        /// queries) and install the given route. The coordinator then
        /// bulk-syncs the worker's shard via `InstallSegments` and re-enters
        /// it into the plan; resetting first makes the whole handshake
        /// idempotent —
        /// a worker that answers `Rejoin` twice just starts over.
        Rejoin = 22 "rejoin" {
            /// The routing-plan epoch of the installed route.
            epoch: u64,
            /// The macro grid the cell indices refer to.
            grid: GridSpec,
            /// The cells this worker will own, packed `row * cols + col`.
            cells: Vec<u32>,
        },
        /// Export the primary shard's contents overlapping `region` as whole
        /// sealed segments (split at cell boundaries against the segments'
        /// own grid) plus the not-yet-sealed head rows
        /// ([`Response::Segments`]). The export is non-destructive and
        /// deterministic, so a retried transfer produces byte-identical
        /// frames and the receiver's dedup holds.
        ExportSegments = 24 "export_segments" {
            /// The region whose contents to export (the routing region of
            /// the copied cell).
            region: BBox,
        },
        /// Write exported rows into one cell of a worker's copy — the one
        /// door the control plane moves rows through, into a primary shard
        /// or a replica log. Every cell copy, cover, drain and truncate is
        /// a stream of these, the first one carrying the frames and the
        /// truncate.
        ///
        /// When `primary` names the addressee, it writes the primary
        /// shard: with `truncate` the cell (under `grid`'s clamped
        /// bucketing) is dropped first, and refused while the installed
        /// route owns it; each frame is verified (counts, checksums, window
        /// bounds) and archived whole, deduplicated by digest only — so
        /// the sender ships frames only onto a cell the addressee holds
        /// nothing of — and `head` rows pass the id filter. When it names
        /// *another* worker, it writes the replica log held for that
        /// primary: with `truncate` the cell's rows and their ids are
        /// removed first, so a stream converges to exactly the primary's
        /// copy; then the rows of `frames` and `head` pass the log's id
        /// set. Re-delivery is harmless either way.
        InstallSegments = 25 "install_segments" {
            /// The primary whose copy is written (the addressee itself for
            /// its primary shard).
            primary: NodeId as Bare,
            /// The macro grid `cell` refers to.
            grid: GridSpec,
            /// The cell written, packed `row * cols + col`.
            cell: u32,
            /// Remove the cell's current contents before writing.
            truncate: bool,
            /// Verified-on-receipt sealed segment frames.
            frames: Vec<SegmentFrame>,
            /// Rows that were still in the exporter's mutable head.
            head: Vec<Observation> as ObservationBatch,
        },
        /// Pull one page of a paged result ([`Response::ResultPage`]). A
        /// worker whose read produced a result larger than the page bound
        /// parks the remaining pages under a `cursor` and answers with page
        /// 0; the client pulls pages `1..pages` with this request. Pulls are
        /// idempotent (the parked pages are kept until the cursor is evicted),
        /// so the existing timeout/retry machinery applies unchanged. An
        /// unknown cursor — evicted, or invented — is answered with
        /// [`Response::Error`].
        FetchPage = 26 "fetch_page" {
            /// The cursor issued with page 0 of the result.
            cursor: u64,
            /// Which page to return, `1..pages`.
            page: u32,
        },
    }
}

wire_struct! {
    /// One cell's digest over a worker's primary shard: observation count
    /// plus an order-independent checksum of the cell's contents.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DigestEntry {
        /// The macro cell, packed `row * cols + col`.
        pub cell: u32,
        /// Observations positioned in the cell.
        pub count: u32,
        /// XOR-folded per-observation mix of id and timestamp (see
        /// [`observation_checksum`](stcam_index::observation_checksum)) —
        /// insertion-order independent, so two holders of the same set agree
        /// regardless of arrival order.
        pub checksum: u64,
    }
}

wire_struct! {
    /// One cell's digest over a replica log: as [`DigestEntry`], keyed by the
    /// primary the log is held for.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ReplicaDigestEntry {
        /// The primary whose replica log the entry describes.
        pub primary: NodeId as Bare,
        /// The macro cell, packed `row * cols + col`.
        pub cell: u32,
        /// Observations positioned in the cell.
        pub count: u32,
        /// Order-independent content checksum (same mix as [`DigestEntry`]).
        pub checksum: u64,
    }
}

wire_struct! {
    /// A worker's answer to [`Request::CellDigest`]: sparse per-cell digests
    /// of its primary shard and of every replica log it holds. They depend
    /// only on the rows a copy holds, not on how it stores them. Cells with
    /// no observations are omitted, so the wire cost tracks occupancy.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct DigestReport {
        /// Occupied cells of the primary shard, sorted by cell.
        pub primary: Vec<DigestEntry>,
        /// Occupied cells of each held replica log, sorted by
        /// `(primary, cell)`.
        pub replicas: Vec<ReplicaDigestEntry>,
    }
}

wire_struct! {
    /// Statistics reported by a worker.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct WorkerStatsMsg {
        /// Observations in the primary shard index.
        pub primary_observations: u64,
        /// Observations held as replicas for other workers.
        pub replica_observations: u64,
        /// Standing-query notifications returned in ingest replies.
        pub notifications_sent: u64,
        /// Standing continuous queries registered.
        pub continuous_queries: u64,
        /// Cumulative microseconds this worker has spent executing requests,
        /// reply encoding included (its "busy time"). On a single-core host
        /// wall-clock numbers do not show parallel speedup; the evaluation
        /// instead reports the critical path — the busiest shard's busy time —
        /// which is what a multi-machine deployment's latency would track.
        pub busy_micros: u64,
        /// Approximate bytes the primary shard keeps in memory: mutable-head
        /// rows plus resident (non-spilled) sealed-segment payloads and
        /// footers. The archive-scale experiment reads this to show the
        /// memory ceiling staying flat as the sealed tier grows.
        pub resident_bytes: u64,
        /// Sealed immutable segments held by the primary shard.
        pub sealed_segments: u64,
        /// End of the newest retained index slice, in milliseconds, if any
        /// data is held. Drives cluster-wide retention sweeps.
        pub newest_ms: Option<u64>,
        /// Requests served, per operation name (see [`Request::op_name`]),
        /// sorted by name. Only operations served at least once appear.
        pub served: Vec<(String, u64)>,
    }
}

impl WorkerStatsMsg {
    /// Requests served under operation name `op` (0 when never served).
    pub fn served_count(&self, op: &str) -> u64 {
        self.served
            .iter()
            .find(|(name, _)| name == op)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

wire_struct! {
    /// One standing continuous-query registration as installed at a worker,
    /// reported in a [`CensusReport`]. The reconstructing coordinator takes
    /// the union of these over all responders as the authoritative
    /// registration table.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CensusRegistration {
        /// The cluster-unique query id.
        pub id: ContinuousQueryId as Bare,
        /// The match predicate.
        pub predicate: Predicate,
    }
}

wire_struct! {
    /// A worker's answer to [`Request::Census`]: everything a restarting
    /// coordinator needs to reconstruct its control state from the surviving
    /// cluster. `epoch` is 0 and `grid` is `None` when no route was ever
    /// installed (a fresh worker).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct CensusReport {
        /// The installed route epoch (0 when no route is installed).
        pub epoch: u64,
        /// The macro grid the owned cells refer to, if a route is installed.
        pub grid: Option<GridSpec>,
        /// Owned primary cells under `grid`, packed `row * cols + col`,
        /// ascending.
        pub cells: Vec<u32>,
        /// Primaries this worker holds a replica log for, ascending by id.
        /// These witness roster members that may currently be dead — the
        /// reconstructed `known` set includes them so they can later rejoin.
        pub replica_of: Vec<NodeId> as Bare,
        /// Standing continuous queries installed locally, ascending by id.
        pub registrations: Vec<CensusRegistration>,
    }
}

wire_enum! {
    /// A worker's answer.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        // `Counts`, the dense heat-map answer, `IngestAck` and
        // `SegmentDigests`.
        retired [2, 6, 9];
        /// Success without data; for an `IngestSeq` or `ReplicateSeq`
        /// batch, that the addressee applied (or already held) all of it.
        Ack = 0 "ack",
        /// Matching observations.
        Observations = 1 "observations" (rows: Vec<Observation> as ObservationBatch),
        /// Worker statistics.
        Stats = 3 "stats" (stats: WorkerStatsMsg),
        /// Application-level failure.
        Error = 4 "error" (message: String),
        /// Sparse per-bucket counts: `(bucket index, count)` for occupied
        /// buckets only (answer to [`Request::Heatmap`]).
        CellCounts = 5 "cell_counts" (counts: Vec<(u32, u64)>),
        /// Acknowledgement of an `IngestSeq` batch, sent instead of `Ack`
        /// when a list is non-empty: the addressee applied the rows it
        /// owns, found `matches` among them, and rejects `misrouted` —
        /// rows its routing plan assigns elsewhere. `epoch` is its plan
        /// epoch, so a stale sender can tell whether *it* must refresh.
        Ingested = 7 "ingested" {
            /// The addressee's routing-plan epoch.
            epoch: u64,
            /// Ids of the observations the addressee refuses to own.
            misrouted: Vec<ObservationId>,
            /// Standing-query matches among the owned rows, by query id.
            matches: Vec<Notification>,
        },
        /// Per-cell anti-entropy digests (answer to [`Request::CellDigest`]).
        Digests = 8 "digests" (report: DigestReport),
        /// Sealed segment frames plus loose head rows (answer to
        /// [`Request::ExportSegments`]).
        Segments = 10 "segments" {
            /// Whole sealed segments overlapping the requested region.
            frames: Vec<SegmentFrame>,
            /// Rows from the exporter's mutable head, sorted by id.
            head: Vec<Observation> as ObservationBatch,
        },
        /// One page of a result too large for a single frame. Page 0 arrives
        /// in place of the plain response; the client pulls pages `1..pages`
        /// with [`Request::FetchPage`] and decodes each as it lands (see
        /// [`paging`](crate::paging)). Every page's `payload` is a standalone
        /// encoding of its rows, so pages decode independently and a lost
        /// pull retries harmlessly.
        ResultPage = 11 "result_page" {
            /// Identifies the parked result at the answering worker.
            cursor: u64,
            /// This page's index, `0..pages`.
            page: u32,
            /// Total pages in the result.
            pages: u32 where (page < pages) else "result page index out of range",
            /// Payload encoding: [`PAGE_OBSERVATIONS`](crate::paging::PAGE_OBSERVATIONS)
            /// or [`PAGE_CELL_COUNTS`](crate::paging::PAGE_CELL_COUNTS) (see
            /// [`paging`](crate::paging)).
            kind: u8,
            /// The page's standalone-encoded rows.
            payload: Vec<u8> as Bytes,
        },
        /// Control-plane census (answer to [`Request::Census`]).
        Census = 12 "census" (report: CensusReport),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_codec::{decode_from_slice, encode_to_vec};

    fn range(projection: u8) -> Request {
        Request::Range {
            region: BBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
            window: TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10)),
            limit: 0,
            projection,
        }
    }

    fn invalid<T>(reason: &'static str) -> Result<T, DecodeError> {
        Err(DecodeError::InvalidValue { reason })
    }

    // Round trips of every variant live where the variants are listed for
    // them: `tests/wire_golden.rs` (one committed frame each) and
    // `tests/properties.rs` (random field values); both fail on a variant
    // `VARIANTS` names and they lack.

    #[test]
    fn op_names_are_unique_and_stable() {
        for variants in [Request::VARIANTS, Response::VARIANTS] {
            let names: std::collections::HashSet<&str> =
                variants.iter().map(|&(_, name)| name).collect();
            assert_eq!(names.len(), variants.len(), "duplicate op names");
        }
        assert_eq!(range(PROJ_FULL).op_name(), "range");
        assert!(Request::VARIANTS.contains(&(REPLICA_READ, "replica_read")));
    }

    #[test]
    fn nested_replica_read_rejected() {
        let evil = Request::ReplicaRead {
            of: NodeId(1),
            inner: Box::new(Request::ReplicaRead {
                of: NodeId(2),
                inner: Box::new(Request::Ping),
            }),
        };
        let bytes = encode_to_vec(&evil);
        assert_eq!(
            decode_from_slice::<Request>(&bytes),
            invalid("nested replica read")
        );
    }

    #[test]
    fn unknown_projection_rejected() {
        let filtered = Request::RangeFiltered {
            region: BBox::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
            window: TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10)),
            class: EntityClass::Pedestrian,
            limit: 0,
            projection: PROJ_THIN,
        };
        for request in [range(PROJ_FULL), filtered] {
            let mut bytes = encode_to_vec(&request);
            *bytes.last_mut().unwrap() = 9; // projection is the final byte
            assert_eq!(
                decode_from_slice::<Request>(&bytes),
                invalid("unknown projection")
            );
        }
    }

    #[test]
    fn result_page_index_out_of_range_rejected() {
        let bad = Response::ResultPage {
            cursor: 1,
            page: 3,
            pages: 3,
            kind: 0,
            payload: vec![],
        };
        let bytes = encode_to_vec(&bad);
        assert_eq!(
            decode_from_slice::<Response>(&bytes),
            invalid("result page index out of range")
        );
    }

    #[test]
    fn degenerate_grid_rejected_inside_a_message() {
        let grid = GridSpec::new(Point::ORIGIN, 100.0, 4, 4);
        let mut bytes = encode_to_vec(&Request::CellDigest { grid });
        *bytes.last_mut().unwrap() = 0; // rows is the final byte
        assert_eq!(
            decode_from_slice::<Request>(&bytes),
            invalid("degenerate grid spec")
        );
    }

    #[test]
    fn served_count_lookup() {
        let stats = WorkerStatsMsg {
            served: vec![("ping".into(), 2), ("range".into(), 7)],
            ..Default::default()
        };
        assert_eq!(stats.served_count("range"), 7);
        assert_eq!(stats.served_count("knn"), 0);
    }

    #[test]
    fn retired_and_unassigned_tags_rejected() {
        // 200 was never assigned; a retired tag must stay dead.
        assert_eq!(Request::RETIRED, [1, 2, 8, 9, 13, 15, 21, 23]);
        assert_eq!(Response::RETIRED, [2, 6, 9]);
        for &tag in Request::RETIRED.iter().chain(&[200]) {
            assert!(matches!(
                decode_from_slice::<Request>(&[tag]),
                Err(DecodeError::InvalidDiscriminant { .. })
            ));
        }
        for &tag in Response::RETIRED.iter().chain(&[200]) {
            assert!(matches!(
                decode_from_slice::<Response>(&[tag]),
                Err(DecodeError::InvalidDiscriminant { .. })
            ));
        }
    }
}
